(** The flight recorder: binds a {!Journal} to a live simulation
    engine.

    Attaching installs the engine's periodic-timer hook (every timer
    fire becomes a [Timer_fired] event) and, when [sample_every] is
    given, a sampling loop that snapshots every registered gauge probe
    into [Sample] events at that fixed sim-time cadence. Probes run in
    registration order, so the sample stream is deterministic.

    Nothing here touches the fire-once scheduling hot path: the timer
    hook only fires on periodic events, and with no recorder attached
    the engine pays a single [option] match per periodic fire. *)

open Domino_sim

type t

val attach :
  ?sample_every:Time_ns.span ->
  ?timeline:Timeline.agg ->
  Journal.t ->
  Engine.t ->
  t
(** Install the hooks. One recorder per engine: attaching replaces any
    previously installed timer hook. With [timeline], every recorded
    journal event is also fed to the aggregator (a {!Journal.add_tap}),
    building the windowed timeline online as the run executes; without
    it nothing timeline-related touches the hot path. *)

val add_probe : t -> string -> (unit -> float) -> unit
(** Register a gauge to snapshot each sampling tick. Safe to call
    after {!attach} but before the first tick fires. *)

val journal : t -> Journal.t

val sink : t -> Journal.sink

val clock : t -> Timeline.Clock.t option
(** The sampling cadence driver ([Some] iff [sample_every] was given):
    other fixed-window consumers can register on it instead of
    scheduling their own periodic timers. *)
