(** The live-rebalancing experiment (beyond the paper): a 2-group
    Domino fabric over NA with range partitioning, so the Zipf
    workload's hot keys all land in slot 0 on group 0, and the
    {!Domino_shard.Migrate} orchestrator moves that slot under
    traffic.

    Three modes — stay (skewed baseline), planned (the fault plan
    migrates slot 0 mid-run), auto (the hot-shard detector triggers
    the moves) — each measured by {!Domino_obs.Dip.analyze} like an
    outage: pre-freeze baseline RPS, dip depth while the hot slot's
    submits queue, time-to-recover after the cutover releases them to
    the new owner. *)

val run :
  ?quick:bool -> ?seed:int64 -> unit -> Domino_stats.Tablefmt.t list
(** Three tables: per-mode summary (latency, routing skew, hot
    windows, move count), the slot migrations themselves (records
    moved, submits queued, span, done/abort), and the per-migration
    throughput dip. *)

val smoke_journal :
  seed:int64 ->
  ?faults:Domino_fault.Plan.t ->
  ?timeline:Domino_obs.Timeline.agg ->
  ?journal:Domino_obs.Journal.t ->
  unit ->
  Domino_obs.Journal.t
(** A 6-second journaled 2-group run migrating the hot slot at 3 s; an
    explicit [faults] plan replaces the default.
    [timeline] is fed online during the run — byte-identical to
    offline replay of the returned journal. The run records into
    [journal] (default: a fresh full ring) and returns it. *)

val chaos_journal :
  seed:int64 ->
  faults:Domino_fault.Plan.t ->
  ?proto:Exp_common.protocol ->
  ?duration:Domino_sim.Time_ns.span ->
  ?timeline:Domino_obs.Timeline.agg ->
  unit ->
  Domino_obs.Journal.t
(** The chaos suite's 2-group runner: the experiment's layout (range
    slots, hot slot 0 on g0) under an arbitrary fault plan and
    protocol (default Domino), at 100 req/s per client. Domino arms
    its in-protocol resend rule; other protocols rely on the fabric's
    generic resend. Both run the one {!Domino_smr.Retry} loop. *)

val sweep_journal :
  ?runs:int ->
  ?seed:int64 ->
  ?jobs:int ->
  ?timeline:Domino_obs.Timeline.agg ->
  unit ->
  Domino_obs.Journal.t
(** A migration-heavy multi-run sweep whose merged journal (and
    absorbed timeline) is byte-identical for every [jobs] — the
    determinism check covering mid-run epoch bumps. *)
