(** The flight recorder: binds a {!Journal} to a live simulation
    engine.

    Attaching installs the engine's periodic-timer hook (every timer
    fire becomes a [Timer_fired] event) and a sampling loop that
    snapshots every registered gauge probe into [Sample] events every
    100 ms of sim time. Probes run in registration order, so the
    sample stream is deterministic.

    Nothing here touches the fire-once scheduling hot path: the timer
    hook only fires on periodic events, and with no recorder attached
    the engine pays a single [option] match per periodic fire. *)

open Domino_sim

type t

val attach :
  ?timeline:Timeline.agg ->
  Journal.t ->
  Engine.t ->
  t
(** Install the hooks. One recorder per engine: attaching replaces any
    previously installed timer hook. With [timeline], every recorded
    journal event is also fed to the aggregator (a {!Journal.add_tap}),
    building the windowed timeline online as the run executes; without
    it nothing timeline-related touches the hot path.

    The timeline's tap is an [Outline] reader: it does not make the
    journal record detail events. Timer fires are detail, so on a
    journal that keeps no detail (a one-slot ring with no detail tap)
    the timer hook builds nothing; gauge samples are outline and are
    always recorded. *)

val add_probe : t -> string -> (unit -> float) -> unit
(** Register a gauge to snapshot each sampling tick. Safe to call
    after {!attach} but before the first tick fires. *)

val journal : t -> Journal.t

val sink : t -> Journal.sink
