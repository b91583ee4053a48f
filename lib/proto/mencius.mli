open Domino_net
open Domino_smr

(** Mencius: multi-leader SMR with pre-partitioned log slots.

    Slot [s] is owned by replica [s mod n]; a client sends requests to
    its (configured, usually closest) owner replica. When a replica
    sees another owner's ACCEPT for slot [s] it skips its own unused
    slots below [s] and announces the skip to everyone, letting [s]
    become executable without waiting for idle owners.

    As in the paper's evaluation, a replica only reports an operation
    committed once all earlier slots are locally decided (committed or
    skipped) — the delayed-commit effect that gives Mencius a higher
    commit latency than EPaxos in Figure 8a. Execution is in slot
    order at every replica. *)

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
(** [coordinator_of client] is the replica the client sends to.
    [stores] (one per replica, indexed like [replicas]) hold each
    replica's durable lane state; fresh default stores when omitted. *)

val submit : t -> Op.t -> unit

val committed_count : t -> int

val classify : msg -> Msg_class.t
(** Cost class of a message, for the Figure 13 throughput model. *)

val op_of : msg -> Op.t option
(** The operation a message carries, if any — per-op trace attribution. *)

module Api : Protocol_intf.S with type t = t
(** The unified-API module, named "mencius" ([Protocols.Mencius]). *)
