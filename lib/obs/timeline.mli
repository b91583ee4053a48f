(** Time-series observability: fixed-window timelines over the flight
    recorder's event stream.

    Every metric in {!Metrics} is a whole-run aggregate; the questions
    the fault and rebalancing work ask — how deep did throughput dip
    when the leader crashed, how long until it recovered, how far did
    p99 spike during the roll — are questions about {e windows} of
    time. A timeline buckets the journal's op-lifecycle, drop, storage
    and gauge events into fixed windows of sim time (default 100 ms)
    and reports, per window: submits, commits (throughput), commit
    latency p50/p99, in-flight ops, message drops and durable writes —
    at cluster, per-group and per-node granularity.

    Timelines are computable two ways, with element-for-element equal
    results (a QCheck-pinned contract):

    - {b online}: {!feed} consumes events as the journal records them
      (installed as a journal tap by {!Recorder.attach}), so the
      timeline stays exact even when the journal's bounded ring
      overflows on a long run;
    - {b offline}: {!of_journal} replays any existing journal — every
      chaos or golden journal in the repo is analyzable retroactively
      (see the [analyze] CLI subcommand).

    Like the chaos checker, a timeline splits a merged sweep journal
    into segments at its [Mark] headers ({!Journal.segment_label} is
    the shared rule), so [run_sweep]-merged journals analyze
    per-(cell, run). All output renderers are deterministic: same
    events, same bytes, for any [--jobs].

    {!Clock} is the shared fixed-cadence window driver on the engine —
    the recorder's gauge sampler and the shard fabric's hot-shard
    detector both tick on it instead of owning private sampling
    timers. *)

open Domino_sim

val default_window : Time_ns.span
(** 100 ms of sim time. *)

(** {2 Windowed cadence driver} *)

module Clock : sig
  type t

  val create : Engine.t -> window:Time_ns.span -> t
  (** Install one periodic engine timer firing at each window close
      (first fire at [window], i.e. the close of window 0). Callbacks
      run in registration order, so everything driven by one clock
      samples in a deterministic sequence.
      @raise Invalid_argument when [window <= 0]. *)

  val window : t -> Time_ns.span

  val on_window : t -> (index:int -> now:Time_ns.t -> unit) -> unit
  (** Register a callback invoked at the close of each window; [index]
      is the window that just closed (0-based), [now] its closing
      instant. *)

  val fired : t -> int
  (** Windows closed so far. *)
end

(** {2 Aggregated timelines} *)

type point = {
  index : int;  (** window number; the window covers
                    [\[index * window, (index+1) * window)] *)
  submits : int;
  commits : int;  (** first commit per op (duplicate commit
                      notifications are dropped, as in the checker) *)
  executes : int;
  drops : int;  (** messages dropped *)
  sync_writes : int;  (** WAL records made durable *)
  inflight : int;  (** submitted-but-uncommitted ops at window end *)
  p50_ms : float;  (** commit-latency median of ops committed in this
                       window; [nan] when none *)
  p99_ms : float;
}

type gauge_point = { g_index : int; mean : float; last : float }

type segment = {
  label : string;  (** the [Mark] that opened the segment; [""] for a
                       single un-marked run *)
  window : Time_ns.span;
  cluster : point array;  (** dense from window 0 to the last window
                              with any journal activity *)
  groups : (int * point array) array;
      (** per consensus group, multi-group journals only (attribution
          needs a key→group map; see [group_resolver]) *)
  nodes : (int * point array) array;
      (** per node id: submits/commits at the client, executes at the
          replica, drops at the destination, syncs at the store *)
  gauges : (string * gauge_point array) array;
      (** per sampled gauge name, sparse (only windows with samples);
          group scope is carried by the name prefix ([g0.proto...]) *)
  faults : (Time_ns.t * string * string) array;
      (** injected [fault.*] events plus migration lifecycle markers:
          (at, kind, detail). A [migrate.freeze] lands as kind
          ["migrate"], its completion as ["migrate.done"] (or
          ["migrate.abort"]), so {!Dip} prices migrations with the same
          baseline/dip/TTR report as crashes and partitions. *)
  recoveries : (Time_ns.t * int * string) array;
      (** [recovery.*] lifecycle events: (at, node, stage) *)
}

type t = segment list

val rps : window:Time_ns.span -> point -> float
(** Commits per second of sim time. *)

val window_start_ms : window:Time_ns.span -> int -> float

(** {2 Collection} *)

type agg
(** A streaming collector: feed it events (in journal order), then
    {!finish}. *)

type group_map = {
  groups : int;
  lookup : int -> int;  (** key -> group, under the current epoch *)
  migrate : slot:int -> to_g:int -> unit;
      (** invoked on each [migrate.epoch] journal event. The offline
          resolver backs [lookup] with a mutable copy of the slot
          assignment and re-points it here; the online map reads the
          live router (already re-pointed when the event fires), so its
          [migrate] is a no-op — either way attribution of every
          subsequent submit is identical. *)
}
(** A per-segment key→group attribution map that can follow slot
    migrations across epochs. *)

type group_resolver = string -> group_map option
(** Recovers per-group attribution from a segment's metadata marks:
    applied to each [Mark] label, returning the segment's {!group_map}
    when the label describes the run's slot map (the fabric's
    [slots=...] mark; [Domino_shard.Slots.resolver_of_mark] implements
    it). *)

val create : ?window:Time_ns.span -> ?group_resolver:group_resolver -> unit -> agg

val window : agg -> Time_ns.span

val set_group_map : agg -> group_map -> unit
(** Provide the key→group map directly (the online path: the fabric
    passes its router's live map). Applies to the current segment. *)

val feed : agg -> Journal.event -> unit

val tap : agg -> Journal.event -> unit
(** [feed agg] as one closure per collector, so installing it again on
    the same journal ({!Journal.add_tap}) is a no-op. *)

val absorb : agg -> label:string -> t -> unit
(** Append an already-finished timeline as further segments, labeling
    unlabeled segments with [label] (prefixing labeled ones) — how
    [run_sweep] merges per-task timelines in task order. *)

val finish : agg -> t
(** Flush and return the segments, oldest first. The collector must
    not be fed afterwards. *)

val of_journal :
  ?window:Time_ns.span -> ?group_resolver:group_resolver -> Journal.t -> t
(** Offline replay of a whole journal. *)

(** {2 Rendering}

    All deterministic: same timeline, same bytes. *)

val to_csv : ?per_node:bool -> t -> string
(** One row per (segment, scope, window):
    [seg,label,scope,window,start_ms,submits,commits,rps,p50_ms,p99_ms,inflight,drops,sync_writes].
    Scopes: [cluster], [g<k>], and with [per_node] also [n<id>].
    [nan] renders empty; commas in labels become [;]. *)

val gauges_to_csv : t -> string
(** [seg,label,gauge,window,start_ms,mean,last]. *)

val to_json : t -> Domino_stats.Json.t

val summary_table : t -> Domino_stats.Tablefmt.t
(** One row per (segment, scope): windows, total commits, mean rps,
    peak p99 — the compact orientation printout of the [analyze]
    subcommand. *)
