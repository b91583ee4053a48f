open Domino_net
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

type msg

type t

val create :
  net:msg Fifo_net.t ->
  replicas:Nodeid.t array ->
  coordinator_of:(Nodeid.t -> Nodeid.t) ->
  observer:Observer.t ->
  ?stores:Domino_store.Store.t array ->
  unit ->
  t
(** [stores] (one per replica, indexed like [replicas]) hold each
    replica's durable instance log; fresh default stores when omitted. *)

val submit : t -> Op.t -> unit

val fast_commits : t -> int
val slow_commits : t -> int

val classify : msg -> Msg_class.t
(** Cost class of a message, for the Figure 13 throughput model. *)

val op_of : msg -> Op.t option
(** The operation a message carries, if any — per-op trace attribution. *)

module Api : Protocol_intf.S with type t = t
(** The unified-API module, named "epaxos" ([Protocols.Epaxos]). *)
