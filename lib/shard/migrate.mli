open Domino_sim
open Domino_obs

(** Live slot migration: move one slot's ownership between consensus
    groups under traffic, without losing or duplicating operations.

    The orchestrator runs a five-phase state machine on the shared
    engine, journaling every phase as a [migrate.*] event so offline
    replay re-derives the same per-epoch key->group attribution the
    live router used:

    - [freeze]: new submits for the slot park in the router's FIFO
      queue; in-flight ops keep going.
    - [drain]: poll {!Router.inflight_on} every 10 ms until the slot
      has zero routed-but-uncommitted ops, then wait a 200 ms grace for
      follower executions to land group-wide.
    - [transfer]: snapshot the slot's keys from a source replica's KV
      store and import into {e every} destination replica, then
      persist a handoff record on each destination's stable store
      ([append_sync], persist-then-act) and charge the modeled
      snapshot-install span.
    - [epoch]: {!Router.reassign} bumps the versioned slot map and the
      [migrate.epoch] event is journaled in the same closure — nothing
      interleaves, so online and offline attribution agree exactly.
    - [done]: {!Router.unfreeze} releases the queued submits FIFO to
      the new owner.

    The freeze and drain, and the handoff fsync barrier, are
    {!Domino_smr.Quiesce.drain} and {!Domino_smr.Quiesce.persist}. If
    the 1.5 s drain deadline expires first (source group wedged — e.g.
    its leader crashed mid-migration), the migration [abort]s:
    unfreeze {e without} reassigning. Cutting over with source ops
    still in flight would let a pre-freeze write commit at the old
    owner after the destination snapshotted — a lost update. *)

type t

type outcome = {
  slot : int;
  from_g : int;
  to_g : int;
  epoch : int;  (** post-bump epoch; the unchanged epoch on abort *)
  records : int;  (** key-value pairs transferred *)
  queued : int;  (** submits released at unfreeze *)
  started_at : Time_ns.t;
  finished_at : Time_ns.t;
  aborted : bool;
}

val create :
  Engine.t ->
  router:Router.t ->
  journal:Journal.sink ->
  spec:Slots.spec ->
  kv_of_group:(int -> Domino_kv.Store.t array) ->
  dstores_of_group:(int -> Domino_store.Store.t array) ->
  install_span:(records:int -> Time_ns.span) ->
  t

val request : t -> slot:int -> to_g:int -> bool
(** Start migrating [slot] to [to_g]. Returns [false] (and does
    nothing) when a migration is already active, the 1.5 s cooldown
    since the last one has not elapsed, the slot or group is out of range,
    or [to_g] already owns the slot. *)

val recently_moved : t -> slot:int -> bool
(** [true] while the slot's last successful migration is younger than
    the cooldown — the auto-rebalancer skips re-flagging such a slot,
    so a freshly-moved hot range can't ping-pong straight back. *)

val outcomes : t -> outcome list
(** Finished migrations, oldest first. *)
