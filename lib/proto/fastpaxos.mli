open Domino_smr

(** Classic Fast Paxos used for SMR (the paper's §6 comparison system).

    Clients propose directly to every replica; each acceptor votes the
    operation into its next free slot in arrival order (fast round 0).
    Acceptors report votes to both the submitting client and a fixed
    coordinator. The client learns a fast-path commit when a
    supermajority voted the same (slot, op). Concurrent clients whose
    requests arrive in different orders collide; the coordinator then
    runs coordinated recovery (classic round 1): it picks, per slot,
    any value voted by at least q−f acceptors of the first classic
    quorum of reports — else the client operation seen — and drives an
    accept round to a majority. Operations that lose every slot they
    were voted into are re-proposed by the coordinator in a classic
    round, preserving liveness.

    This reproduces the Figure 7 behaviour: lowest latency with a
    single client, collapse to slow-path latency with as few as two
    concurrent clients in different datacenters. *)

include Protocol_intf.S
(** Named "fastpaxos" ([Protocols.Fast_paxos]). [env.leader] is the
    coordinator; [env.stores] (one per replica, indexed like
    [env.replicas]) hold each acceptor's durable votes and the
    coordinator's decisions. [control] refuses every operation. *)
