(** The shard-serving fabric experiment (beyond the paper): one engine
    hosting N Domino consensus groups behind the slot router, sweeping
    shard count x client population over the NA topology.

    Every group replicates on WA/VA/QC; group leaders/coordinators are
    spread across those replicas by client geography
    ({!Domino_shard.Placement.spread_leaders}). Reports aggregate and
    bottleneck-client p50/p99 commit latency, per-group routing and
    latency detail, and a hash-vs-range partitioning contrast where the
    Zipf workload's hot keys make the lowest range hot and the
    hot-shard detector fires. *)

val run :
  ?quick:bool -> ?seed:int64 -> unit -> Domino_stats.Tablefmt.t list
(** Three tables: the shard-count x client-population sweep, per-group
    detail, and the hash-vs-range partitioning contrast at 4 groups. *)

val smoke_journal :
  seed:int64 ->
  ?faults:Domino_fault.Plan.t ->
  ?timeline:Domino_obs.Timeline.agg ->
  ?journal:Domino_obs.Journal.t ->
  unit ->
  Domino_obs.Journal.t
(** A short journaled 2-group fabric run — the CLI's
    [experiment shards --journal-out] smoke target and the CI
    multi-group determinism check. [timeline] is fed online during
    the run. The run records into [journal]
    (default: a fresh full ring) and returns it. *)
