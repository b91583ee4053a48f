open Domino_net
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

type msg

type t

val create :
  net:msg Fifo_net.t ->
  replicas:Nodeid.t array ->
  coordinator:Nodeid.t ->
  observer:Observer.t ->
  ?stores:Domino_store.Store.t array ->
  unit ->
  t
(** [stores] (one per replica, indexed like [replicas]) hold each
    acceptor's durable votes and the coordinator's decisions; fresh
    default stores when omitted. *)

val submit : t -> Op.t -> unit

val fast_commits : t -> int
val slow_commits : t -> int

val classify : msg -> Msg_class.t
(** Cost class of a message, for the Figure 13 throughput model. *)

val op_of : msg -> Op.t option
(** The operation a message carries, if any — per-op trace attribution. *)

module Api : Protocol_intf.S with type t = t
(** The unified-API module, named "fastpaxos" ([Protocols.Fast_paxos]). *)
