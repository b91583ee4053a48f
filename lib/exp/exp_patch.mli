(** The "patch" experiment: maintenance-event dip/TTR reports across
    the five protocols.

    Compares three ways of taking a replica (or the whole group)
    through maintenance under traffic — an ungraceful leader crash, a
    graceful leader transfer ({!Domino_smr.Reconfig}), and a full
    rolling wipe-upgrade ({!Domino_smr.Reconfig.roll}) — with an online
    {!Domino_obs.Timeline}, rendering {!Domino_obs.Dip.analyze}'s
    per-event reports (baseline RPS, dip depth, time-to-recover, p99
    spike; per-node rows for each replica a roll wipes) as one table.
    The headline claim it measures: a graceful transfer dips strictly
    shallower than a leader crash. *)

val run : ?quick:bool -> ?seed:int64 -> unit -> Domino_stats.Tablefmt.t

val smoke_journal :
  seed:int64 ->
  ?faults:Domino_fault.Plan.t ->
  ?timeline:Domino_obs.Timeline.agg ->
  ?journal:Domino_obs.Journal.t ->
  unit ->
  Domino_obs.Journal.t
(** A short journaled rolling patch of a 3-node Domino group under
    load (default plan: [roll group=0 dwell=500ms] at 2.5 s), for CLI
    smokes and the CI roll-smoke artifacts. [timeline] is fed online
    during the run. The run records into [journal]
    (default: a fresh full ring) and returns it. *)
