(** Simulated per-node stable storage: a write-ahead log plus an atomic
    snapshot, with modeled latency and crash-with-amnesia semantics.

    A store holds typed records in append order, in one array indexed
    from the snapshot's frontier. Records are values of the extensible
    variant {!record}: each protocol adds its own constructors, writes
    them, and pattern-matches them on replay — nothing is formatted or
    parsed, on the write path or in a snapshot. [append] is an
    in-memory buffer write; a record only survives a {!wipe} once an
    fsync barrier covering it has completed ({!sync}), or once a later
    {!snapshot} subsumes it. Sync barriers take simulated time — an
    engine timer of [sync_latency + append_latency * fresh records] —
    so protocols that fsync before externalizing state pay the disk on
    their commit critical path (visible as the journal's [sync_wait]
    phase and the provenance component of the same name). Requests that
    arrive while a barrier is in flight coalesce into the next barrier
    (group commit); [Batched w] additionally holds each barrier open
    for a window [w] before starting it.

    A snapshot is a list of records too: the ones that replace a log
    prefix, built from constructors the owner's replay handles, so that
    replaying the snapshot rebuilds what replaying the prefix would.
    Once it is durable the prefix is truncated, and a store holds the
    records of one snapshot interval instead of the whole run.

    Crash semantics: {!wipe} models a power cut — every record not yet
    covered by a completed barrier is lost, pending callbacks die, and
    in-flight barrier/snapshot completions are aborted (epoch guard).
    {!recover} then returns the surviving snapshot's records followed
    by the surviving log suffix, oldest first, for the owner to replay;
    {!recovery_span} is the modeled wall time that reload takes.

    All storage events (append, sync, truncate, snapshot) are journaled
    as [store.*] events, and wipe/replay as [recovery.*] events, so the
    flight recorder shows what reached disk and when. *)

open Domino_sim
open Domino_obs

type sync_mode =
  | Immediate  (** start an fsync barrier as soon as the disk is free *)
  | Batched of Time_ns.span
      (** hold each barrier open for a window first, trading commit
          latency for fewer, fatter fsyncs *)

type params = {
  sync_latency : Time_ns.span;  (** fixed cost per fsync barrier *)
  append_latency : Time_ns.span;  (** additional cost per fresh record *)
  snapshot_latency : Time_ns.span;
  replay_per_record : Time_ns.span;  (** recovery cost per log record *)
  mode : sync_mode;
}

val default_params : params
(** 40 us fsync (power-loss-protected NVMe) + 0.5 us/record, 2 ms
    snapshots, [Immediate]. *)

type record = ..
(** A WAL record. Protocols extend this with their own constructors
    and ignore the ones they do not own. *)

type t

val create : Engine.t -> node:int -> params:params -> journal:Journal.sink -> t

val append : t -> kind:string -> record -> int
(** Buffer a record; returns its log index. Not durable until a
    subsequent {!sync} barrier (or covering {!snapshot}) completes.
    [kind] names the record in the journal's [store.append … kind=]
    detail. *)

val sync : t -> (unit -> unit) -> unit
(** Request an fsync barrier; the callback fires (in request order)
    once every record appended before the barrier started is durable.
    Callbacks die silently if the node wipes first. *)

val append_sync : t -> kind:string -> record -> (unit -> unit) -> unit
(** [append] then [sync] — the WAL idiom for "persist, then act". *)

val snapshot : t -> record list -> upto:int -> unit
(** Write [records] as a snapshot replacing every record with index
    below [upto]: replaying them must rebuild what replaying that
    prefix would. After [snapshot_latency] the snapshot becomes durable
    atomically and covered log records are truncated — unsynced ones
    too, when [upto] is past {!durable_upto}, which then jumps to
    [upto] (and shortens the next fsync). Aborted by an intervening
    {!wipe}. The journal's [store.snapshot] detail counts the records
    ([recs=]). *)

val fold : t -> from:int -> upto:int -> ('a -> record -> 'a) -> 'a -> 'a
(** Fold, oldest first, over the records with log index in
    [\[from, upto)] that the store still holds. The indices below the
    snapshot's frontier stand for the durable snapshot's records: a
    fold from [0] starts with them. Reads only; nothing is journaled. *)

val appended : t -> int
(** Total records appended (the next record's index). *)

val durable_upto : t -> int
(** Disk frontier: records below this index survive a wipe. *)

val unsynced_count : t -> int
(** Records that would be lost if the node wiped right now. *)

val wipe : t -> unit
(** Crash with amnesia: drop the unsynced tail, abort in-flight
    barriers and snapshots, discard pending callbacks. Journals a
    [recovery.wipe] event with the loss count. *)

val recovery_span : t -> Time_ns.span
(** Modeled duration of {!recover}: mount + snapshot load + per-record
    replay. The caller keeps the node down for this long. *)

val recover : t -> record list
(** The surviving snapshot's records, then the surviving log suffix,
    oldest first, for the owner to rebuild from. Journals a
    [recovery.replay] event. *)

val counters : t -> (string * int) list
(** Monotonic event counts, stable keys: [appends], [syncs],
    [sync_writes] (records made durable by barriers), [truncated],
    [snapshots], [replayed], [lost], [wipes]. *)

val recovery_spans : t -> Time_ns.span list
(** Modeled replay span of every recovery so far, oldest first. *)
