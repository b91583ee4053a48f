open Domino_net

(** State-machine operations.

    The evaluation workload (§7.1) is a replicated key-value store
    receiving write operations of 16 bytes (8 B key + 8 B value). An
    operation is uniquely identified by (client, seq); two operations
    interfere when they touch the same key (the EPaxos notion the paper
    reuses). *)

type t = {
  client : Nodeid.t;  (** submitting client's node id *)
  seq : int;  (** per-client sequence number *)
  key : int;
  value : int64;
}

type id = Nodeid.t * int

val make : client:Nodeid.t -> seq:int -> key:int -> value:int64 -> t

val id : t -> id

val conflicts : t -> t -> bool
(** Same key, different operation. *)

val compare_id : id -> id -> int

val pp : Format.formatter -> t -> unit

val to_wire : t -> string
(** Single-token encoding ([client:seq:key:value]) for the text of
    Multi-Paxos snapshots; inverse of {!of_wire}. WAL records are typed
    ({!Domino_store.Store.record}) and never encode ops. *)

val of_wire : string -> t option

module Idmap : Map.S with type key = id
module Idset : Set.S with type elt = id

module Idtbl : Hashtbl.S with type key = id
(** Op-id hash tables with an integer hash, for the per-op bookkeeping
    on the commit/execute path. *)
