open Domino_net
open Domino_smr

(** Multi-Paxos with a stable leader (steady state, no view changes).

    Clients send requests to the fixed leader; the leader assigns
    consecutive log slots and replicates with a single accept round to
    a majority (counting itself). Committed slots are broadcast and
    every replica executes in slot order. A client therefore pays
    client→leader→majority→leader→client: the two WAN roundtrips the
    paper's introduction attributes to leader-based SMR. *)

type msg

type t

val create :
  net:msg Fifo_net.t ->
  replicas:Nodeid.t array ->
  leader:Nodeid.t ->
  observer:Observer.t ->
  ?stores:Domino_store.Store.t array ->
  unit ->
  t
(** Installs handlers on [net] for every replica. [leader] must be one
    of [replicas]. [stores] (one per replica, indexed like [replicas])
    hold the durable log; fresh default stores when omitted. *)

val submit : t -> Op.t -> unit
(** Send [op] from [op.client] (a node on the same network) to the
    leader. *)

val committed_count : t -> int

val transfer : t -> to_:Nodeid.t -> k:(unit -> unit) -> bool
(** Graceful leader handoff: stop opening slots, drain the open-slot
    table (bounded by a 1.5 s deadline), flip the leader to [to_], and
    re-drive requests parked during the drain. [k] fires once the new
    leader is serving. [false] if [to_] is not a replica. *)

val classify : msg -> Msg_class.t
(** Cost class of a message, for the Figure 13 throughput model. *)

val op_of : msg -> Op.t option
(** The operation a message carries, if any — per-op trace attribution. *)

module Api : Protocol_intf.S with type t = t
(** The unified-API module, named "multipaxos" ([Protocols.Multi_paxos]). *)
