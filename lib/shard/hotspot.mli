open Domino_obs

(** Hot-shard detection on {!Domino_obs.Timeline.Clock} windows: at
    every window close the detector reads a cumulative per-group load
    vector (routed ops, committed ops — any monotone counter), takes
    the window delta, and flags every group whose share exceeds
    [factor] times the even split. Flag events land in the journal as
    [fabric.hot.g<k>] {!Domino_obs.Journal.Sample}s, so a sharded run's
    journal shows exactly when load tilted; {!probe} exposes the
    current hottest group as a gauge the recorder can snapshot.

    Riding the shared clock (rather than a private periodic timer)
    means the detector's cadence is the same windowing the timeline
    reports on — a flagged window lines up 1:1 with a timeline row. *)

type t

val create :
  Timeline.Clock.t ->
  groups:int ->
  ?factor:float ->
  ?on_hot:(g:int -> unit) ->
  loads:(unit -> float array) ->
  journal:Journal.sink ->
  unit ->
  t
(** Register the detector on the clock. [loads] must return a
    cumulative per-group vector of length [groups]; [factor] defaults
    to 2 (a shard is hot at twice its fair share). Every hot window is
    counted in {!flags} and journaled, but [on_hot] only fires once
    the group has stayed hot for two consecutive windows — the dwell
    that stops a single skewed window from triggering a migration,
    after which it fires once per further hot window. The hook is what
    the fabric's auto-rebalancer uses to turn detection into a live
    slot migration. *)

val flags : t -> int array
(** Hot windows detected per group. *)

val hottest : t -> int
(** Group with the largest load delta in the last window; [-1] before
    the first sample. *)

val checks : t -> int
(** Windows evaluated. *)

val probe : t -> unit -> float
(** {!hottest} as a recorder gauge probe. *)
