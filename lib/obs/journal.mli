(** The flight recorder's event stream: a sim-time-stamped, bounded
    journal of everything observable about a run — message sends,
    deliveries and drops, periodic timer fires, protocol phase
    transitions, op lifecycle events, and sampled gauges.

    The journal lives below [lib/smr] in the dependency order, so
    nodes are plain [int]s and operations are [(client, seq)] pairs;
    the layers above translate.

    Recording is opt-in via the {!sink} indirection: every emission
    site guards with {!enabled} (or calls {!emit}, which is a no-op on
    {!null}), so a run without a journal pays one [option]/variant
    match per hook, nothing more.

    Events come in two {!tier}s, and a journal records an event only if
    something reads it. The {e outline} is what the windowed timeline
    reads: op lifecycle, message drops, store syncs, gauge samples,
    marks, faults, recoveries, migrations and reconfigurations. The
    {e detail} tier is the rest — every send, delivery, timer fire and
    phase span, the WAL's appends, snapshots and truncations, and the
    per-message [fault.drop] — which only the ring itself and the
    [--trace-op] tap ({!Provenance.attach}) read. A timeline-only run
    (a one-slot ring whose only tap is the timeline's) therefore never
    builds a detail event: each emitter asks {!detail} first.

    Determinism: a journal records events in simulation order, which
    is a pure function of the seed. Parallel sweeps give each run its
    own journal and {!append} them in task-index order, so the merged
    stream — and {!to_lines} — is byte-identical for any [--jobs]. *)

open Domino_sim

type opid = int * int
(** (client node, per-client sequence) — [Op.id] flattened. *)

type event =
  | Submit of { op : opid; node : int; key : int; at : Time_ns.t }
  | Commit of { op : opid; node : int; at : Time_ns.t }
  | Execute of { op : opid; replica : int; at : Time_ns.t }
  | Msg_sent of {
      seq : int;
      src : int;
      dst : int;
      cls : string;
      op : opid option;
      at : Time_ns.t;
    }
  | Msg_delivered of {
      seq : int;
      src : int;
      dst : int;
      cls : string;
      op : opid option;
      sent_at : Time_ns.t;
      at : Time_ns.t;
    }
  | Msg_dropped of {
      seq : int;  (** [-1] when dropped before a sequence number was assigned *)
      src : int;
      dst : int;
      cls : string;
      reason : string;
      at : Time_ns.t;
    }
  | Timer_fired of { at : Time_ns.t }
  | Phase of {
      node : int;
      op : opid option;
      name : string;
      dur : Time_ns.span;  (** [0] for instantaneous transitions *)
      at : Time_ns.t;
    }
  | Sample of { name : string; value : float; at : Time_ns.t }
  | Mark of { label : string; at : Time_ns.t }
  | Fault of { name : string; detail : string; at : Time_ns.t }
      (** An injected fault (or its heal), recorded by [Fault.Inject] so
          journals — and Perfetto traces — show exactly when the network
          or a node misbehaved. Rendered as [fault.<name> <detail>]. *)
  | Store_ev of { node : int; op : string; detail : string; at : Time_ns.t }
      (** A stable-storage operation at a node — [append], [truncate],
          [snapshot] — recorded by [Store] so journals show what reached
          disk and when. Rendered as [store.<op> node=<n> <detail>]. *)
  | Store_sync of {
      node : int;
      recs : int;  (** records the barrier makes durable *)
      upto : int;  (** the log index it makes durable up to *)
      dur_us : int;  (** its modeled duration *)
      at : Time_ns.t;
    }
      (** An fsync barrier starting at a node, kept as integers so the
          timeline reads [recs] without parsing. Rendered as
          [store.sync node=<n> recs=<r> upto=<u> dur_us=<d>]; a
          [store.sync] line with other fields parses as a [Store_ev]. *)
  | Recovery of { node : int; stage : string; detail : string; at : Time_ns.t }
      (** A node-recovery lifecycle event — [wipe] (volatile state and
          unsynced log tail lost), [replay] (durable state reloaded),
          [up] (node back online) — its own event class so replay
          progress is visible in the flight recorder, distinct from the
          [fault.*] events that caused it. Rendered as
          [recovery.<stage> node=<n> <detail>]. *)
  | Migrate of {
      stage : string;
      slot : int;
      from_g : int;
      to_g : int;
      epoch : int;
      detail : string;
      at : Time_ns.t;
    }
      (** A slot-migration lifecycle event emitted by [Shard.Migrate] —
          [freeze] (source stops accepting the slot, new submits queue),
          [drain] (in-flight ops on the slot settled or deadline hit),
          [transfer] (key state snapshotted and installed at the
          destination), [epoch] (the router's versioned assignment
          bumped: from this event on the slot belongs to [to_g]),
          [done] / [abort] (queue flushed; migration over). Offline
          replay uses the [epoch] events to attribute each key to the
          correct group per epoch. NOT a [Mark]: a migration happens
          mid-run and must not split the checker/timeline segment.
          Rendered as
          [migrate.<stage> slot=<s> from=g<a> to=g<b> epoch=<e> <detail>]. *)
  | Reconfig of {
      stage : string;
      group : int;
      epoch : int;
      detail : string;
      at : Time_ns.t;
    }
      (** A membership-reconfiguration / rolling-patch lifecycle event.
          Membership change ([Smr.Reconfig]): [begin] (group frozen,
          drain started), [epoch] (new config persisted on every member
          and the membership epoch bumped — the externalization point),
          [done] (submits released under the new config), [abort].
          Leader transfer: [transfer] / [transfer_done]. Rolling patch
          ([Smr.Reconfig.roll]): [roll] (roll started), [roll_node] (a
          node taken down for its wipe-upgrade), [roll_done]. Details lead
          with [node=<n>] where a node is affected so dip reports can
          attribute the event. Like [Migrate], NOT a [Mark] — a
          reconfiguration happens mid-run and must not split the
          checker/timeline segment. Rendered as
          [reconfig.<stage> group=<g> epoch=<e> <detail>]. *)

module Opid_tbl : Hashtbl.S with type key = opid
(** Op-id hash tables with an integer hash ([Op.Idtbl] is this one). *)

(** {2 Tiers} *)

type tier =
  | Outline
      (** [Submit], [Commit], [Execute], [Msg_dropped], [Store_sync],
          [Sample], [Mark], [Recovery], [Migrate], [Reconfig], and every
          [Fault] but [drop]: exactly what {!Timeline.feed} reads. *)
  | Detail
      (** [Msg_sent], [Msg_delivered], [Timer_fired], [Phase],
          [Store_ev] (append, snapshot, truncate) and [fault.drop]. *)

val tier : event -> tier

type t

val create : ?capacity:int -> unit -> t
(** A fresh journal holding at most [capacity] events (default 2^20).
    When full, the oldest events are overwritten (ring buffer) and
    {!dropped} counts them. The ring is allocated on demand: it starts
    at 1024 slots and doubles as events arrive, up to [capacity].

    A journal whose ring keeps more than one event records both tiers.
    A one-slot ring — the throwaway that exists only to feed taps —
    records detail events only once a tap that reads them is installed
    ({!add_tap}). *)

val capacity : t -> int

val record : t -> event -> unit
(** Record an event, whatever its tier: the tier is applied by {!emit},
    on the emitters' path. *)

val length : t -> int
(** Events currently held (≤ capacity). *)

val recorded : t -> int
(** Total events ever recorded, including overwritten ones. *)

val dropped : t -> int
(** Events lost to ring overwrite: [recorded - length]. *)

val iter : t -> (event -> unit) -> unit
(** Oldest to newest. *)

val to_array : t -> event array

val append : t -> t -> unit
(** [append dst src] records every event of [src] into [dst], in
    order. Used by the sweep runner to merge per-run journals
    deterministically. *)

val add_tap : ?reads:tier -> t -> (event -> unit) -> unit
(** Install a tap invoked on every event recorded from now on —
    including events copied in by {!append}. Taps run in installation
    order, each seeing the complete stream in record order. Installing
    a tap that is already installed (the same closure) is a no-op, so
    re-attaching a timeline to a reused journal does not stack. Unlike
    the ring, a tap sees every event even past overwrite, which is how
    online timeline aggregation and the [--trace-op] focus stay exact
    on long runs. Costs one option match per recorded event however
    many taps are installed; a journal-less run is unaffected.

    [reads] (default [Detail]) says what the tap needs: a [Detail]
    reader makes the journal record detail events from now on; an
    [Outline] reader (the timeline's) does not, so on a one-slot ring
    it sees the outline only. *)

(** {2 Emission sink} *)

type sink = Null | Rec of t

val null : sink

val sink : t -> sink

val enabled : sink -> bool

val detail : sink -> bool
(** Whether the sink records detail-tier events ([false] on {!null}).
    Every emitter of a detail event tests it before building the event,
    so a timeline-only run allocates none of them. *)

val emit : sink -> event -> unit
(** Record the event if the sink keeps its tier: a no-op on {!null},
    and on a journal that records no detail, for a detail event. *)

(** {2 Serialization} *)

val pp_event : Buffer.t -> event -> unit
(** One line, no trailing newline. Deterministic: same events, same
    bytes. Written straight into the buffer, without [Printf] (except
    a [Sample]'s value, rendered as [%.6g]). *)

val add_int : Buffer.t -> int -> unit
(** The writer's integer rendering: the bytes of [Printf "%d"], for
    every [int] including [min_int]. For emitters that build details
    without [Printf]. *)

val to_lines : t -> string
(** The whole journal, one event per line (each newline-terminated). *)

val parse_line : string -> (event, string) result
(** The exact inverse of {!pp_event}: parsing a rendered line yields
    the original event, and re-rendering a parsed line yields the
    original bytes (QCheck-pinned). This is what makes journal files on
    disk a real interchange format — the [analyze] subcommand replays
    them offline. *)

val of_lines : string -> (t, string) result
(** Parse a whole rendered journal (as produced by {!to_lines}); blank
    lines are skipped. Errors carry the 1-based line number. *)

(** {2 Segmentation} *)

val segment_label : event -> string option
(** [Some label] when the event is a segment boundary — a [Mark]. The
    shared rule by which both the chaos checker and timelines split a
    sweep-merged journal back into per-run segments. *)
