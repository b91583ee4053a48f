(** The "recovery" experiment: fault dip/recovery reports across the
    five protocols.

    Runs the two canonical chaos shapes (leader crash + recover,
    follower crash-with-amnesia wipe) under traffic with an online
    {!Domino_obs.Timeline}, then renders {!Domino_obs.Dip.analyze}'s
    per-fault reports — pre-fault baseline RPS, dip depth,
    time-to-recover to within 10% of baseline, p99 spike — as one
    table. This is the measured "RPS dip during the roll" analysis the
    rebalancing and live-patching roadmap items will be judged by. *)

val run : ?quick:bool -> ?seed:int64 -> unit -> Domino_stats.Tablefmt.t

val smoke_journal :
  seed:int64 ->
  ?faults:Domino_fault.Plan.t ->
  ?timeline:Domino_obs.Timeline.agg ->
  ?journal:Domino_obs.Journal.t ->
  unit ->
  Domino_obs.Journal.t
(** A short journaled crash-and-heal Domino run (default plan: leader
    crash at 2.5 s, recover at 4 s), for CLI smokes and the CI
    [analyze] artifacts. [timeline] is fed online during the run.
    The run records into [journal] (default: a fresh full ring) and
    returns it. *)
