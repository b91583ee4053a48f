open Domino_smr

(** EPaxos (Egalitarian Paxos), the simplified-quorum variant.

    Any replica can lead an operation: a client sends to its closest
    replica, which assigns the operation a (deps, seq) pair from its
    per-key interference table and PreAccepts it at the other replicas.
    If the first 2f−1 peer replies agree with the leader's attributes,
    the operation commits on the fast path (two WAN roundtrips from a
    non-colocated client: client→leader and leader→quorum). Divergent
    replies force a third roundtrip: the union attributes run a classic
    accept round at a majority.

    Execution is per-replica and dependency-driven: a committed
    instance executes once its dependency closure is committed, with
    strongly connected components executed in [seq] order — so
    non-interfering operations execute out of order (the paper's
    Figure 10a label (2)) while contention stalls execution chains
    (Figure 10b label (4)). *)

include Protocol_intf.S
(** Named "epaxos" ([Protocols.Epaxos]). Its clients send to
    [env.coordinator_of client]; [env.stores] (one per replica, indexed
    like [env.replicas]) hold each replica's durable instance log.
    Leaderless, so [control] refuses every operation. *)
