(** The benchmark's named workloads: what each one runs, its timed
    body, its correctness checks, and the figures read off its result.

    Every workload uses the paper's §7.1 load (200 req/s per client,
    open loop, exponential inter-arrivals, Zipf 0.75 over 1M keys) on
    one engine in one domain. See [README.md] for why each exists. *)

open Domino_sim
open Domino_obs

type kind = Globe3_steady | Na3_recorded | Na3_ops_faults

type spec = {
  kind : kind;
  name : string;
  duration : Time_ns.span;  (** load duration; [Fabric.run] adds a 3 s drain *)
  measure_from : Time_ns.span;
  measure_until : Time_ns.span;
  runs : int;
      (** independent runs pooled into one benchmark figure, at seeds
          [Exp_common.seed_for seed 0 .. runs-1] *)
}

val names : string list

val spec : ?duration:Time_ns.span -> ?runs:int -> string -> spec option
(** [None] for an unknown name. [duration] and [runs] override the
    workload's defaults (the smoke test runs shorter and fewer). *)

val seeds : spec -> seed:int64 -> int64 list
(** The [runs] seeds derived from the benchmark's [--seed]. *)

val window_s : spec -> float
(** Length of the measurement window, sim seconds. *)

type sinks = Workload_sinks | Sinks_off

type run = {
  result : Domino_shard.Fabric.result;
  ledger : Ledger.t;
  wall_s : float;  (** the timed body: simulation plus analyses *)
  setup_s : float;  (** [Fabric.run] entry to its first event *)
  loop_s : float;  (** first to last event; [Traced] only *)
  post_run_s : float;  (** last event to [Fabric.run]'s return; [Traced] only *)
  journal : Journal.t option;
  journal_bytes : int;
  to_lines_s : float;
  checker : Domino_fault.Checker.report option;
  checker_s : float;
  timeline_s : float;
  dips : Dip.report list;
}

val execute : ?sinks:sinks -> spec -> seed:int64 -> Ledger.mode -> run
(** One run of the workload's timed body. [Sinks_off] drops the
    journal and timeline (the reference for the recorder's cost). *)

type probe_sinks

val probe_sinks : spec -> probe_sinks
(** The journal and timeline the set-up probes share, allocated once. *)

val setup_probe : spec -> seed:int64 -> probe_sinks -> float
(** Wall seconds from entering [Fabric.run] to its first simulated
    event, with the workload's exact arguments; stops there. *)

val validate : spec -> seed:int64 -> string list
(** [na3-ops-faults] only: re-run the plan with the full journal and
    [Checker.check ~slot_resolver]. Errors, or [[]]. Too slow for every
    benchmark run (over a minute here), so the smoke test does it once
    per seed it uses. *)

val check : spec -> run -> string list
(** Per-run correctness: equal store fingerprints within every group;
    on [na3-recorded] an unoverflowed journal and zero checker
    violations; on [na3-ops-faults] every migration done, none aborted,
    and every fault recovered. Errors, or [[]]. *)

val simulated : spec -> run -> (string * float) list
(** Simulated-system figures: pure functions of the seed, identical
    with sinks on or off. *)

val fault_figures : run -> (string * float) list
(** Worst dip depth and time to recover over the plan's faults, from
    the timeline ([0] without one). *)

val counts : run -> (string * float) list
(** Per-layer counts: exact for a given seed and sink setting. *)

val latencies : run -> Domino_stats.Summary.t * Domino_stats.Summary.t
(** Commit and execution latency samples (ms) of the measurement
    window, merged over every group. *)

val submitted : run -> int
val committed : run -> int
