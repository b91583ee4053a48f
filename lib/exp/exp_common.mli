open Domino_sim
open Domino_net
open Domino_smr
open Domino_obs

(** Shared machinery for reproducing the paper's experiments (§7.1).

    A {!setting} is a cluster layout: the topology, which datacenters
    host replicas, which host clients, and where the Multi-Paxos
    leader / Fast Paxos & DFP coordinator live. {!run} executes one
    simulated experiment of a given protocol over a setting —
    dispatching through the {!Protocol_intf} registry, so it contains
    no per-protocol wiring — and returns the recorder with its latency
    samples plus the run's metrics registry and (optional) operation
    trace; {!run_many} repeats it with different seeds and merges
    results, the paper's 10-runs-combined methodology. *)

type setting = {
  topo : Topology.t;
  replica_dcs : string array;
  client_dcs : string array;
  leader : int;  (** replica index hosting Multi-Paxos leader and the
                     Fast Paxos / DFP coordinator *)
}

val na3 : setting
(** Figure 8a: NA, replicas WA/VA/QC (leader+coordinator WA), one
    client in each of the 9 NA datacenters. *)

val na5 : setting
(** Figure 8b: NA, replicas WA/VA/QC/CA/TX. *)

val globe3 : setting
(** Figure 8c (and 9-11): Globe, replicas WA/PR/NSW, one client per
    datacenter. *)

val fig7_single : setting
(** Figure 7: replicas WA/VA/QC, one client in IA. *)

val fig7_double : setting
(** Figure 7: same replicas, clients in IA and WA. *)

type protocol = Protocols.t =
  | Domino of {
      additional_delay : Time_ns.span;
      percentile : float;
      every_replica_learns : bool;
      adaptive : bool;  (** §5.4 feedback controller *)
    }
  | Mencius
  | Epaxos
  | Multi_paxos
  | Fast_paxos
(** Re-export of {!Protocols.t}, the experiment-facing selector. *)

val domino_default : protocol
(** Domino with no additional delay, p95 estimates. *)

val domino_exec : protocol
(** Domino with the paper's +8 ms execution-latency setting (§7.2.3). *)

val domino_adaptive : protocol
(** Domino with the §5.4 feedback controller instead of a static
    additional delay. *)

val protocol_name : protocol -> string

type result = {
  recorder : Observer.Recorder.t;
  metrics : Metrics.t;
      (** the run's registry: [run.*] counters and latency histograms,
          per-class [<protocol>.msg.*] counters, [sim.events] *)
  fast_commits : int;  (** protocol-reported fast-path commits, if any *)
  slow_commits : int;
  extra : (string * int) list;
      (** protocol-specific counters with stable keys — Domino reports
          [dfp_fast_decisions], [dfp_slow_decisions], [dfp_conflicts],
          [dfp_submissions], [dm_submissions], [late_decisions] *)
  store_fingerprints : int list;
      (** per-replica state-machine digests after the run; all equal
          iff replicas executed identically *)
  wall_events : int;  (** messages delivered, for cost reporting *)
  provenance : Provenance.breakdown list;
      (** per-committed-op critical-path latency decomposition; empty
          unless the run was journaled *)
  sync_writes : int;
      (** WAL records made durable by fsync barriers, summed over the
          replicas' stable stores (also [store.sync_writes] in
          metrics) *)
  recovery_ms : float list;
      (** modeled wipe-restart replay spans, oldest first (also the
          [store.recovery_ms] histogram) *)
}

val run :
  ?seed:int64 ->
  ?rate:float ->
  ?alpha:float ->
  ?duration:Time_ns.span ->
  ?measure_from:Time_ns.span ->
  ?measure_until:Time_ns.span ->
  ?metrics:Metrics.t ->
  ?journal:Journal.t ->
  ?timeline:Timeline.agg ->
  ?sample_every:Time_ns.span ->
  ?faults:Domino_fault.Plan.t ->
  ?dedup:bool ->
  ?reconfig_mutant:bool ->
  ?store:Domino_store.Store.params ->
  setting ->
  protocol ->
  result
(** Defaults: 200 req/s per client, alpha 0.75, 30 s runs measured over
    \[5 s, 28 s\] — a scaled-down version of the paper's 90 s runs
    measured over the middle 60 s.

    [metrics] shares a caller's registry (default: a fresh one, in
    [result.metrics]).

    [journal] turns on the flight recorder: every network, timer, op
    lifecycle and phase event of the run lands in the given journal,
    gauges are sampled into it every [sample_every] (default 100 ms of
    sim time), and [result.provenance] carries the critical-path
    latency decomposition (also recorded as [prov.*] histograms in the
    metrics registry). Without [journal], none of this costs anything
    beyond one variant match per hook.

    [timeline] feeds the given {!Domino_obs.Timeline} collector online
    as the run executes (installing a throwaway journal when [journal]
    is absent); call [Timeline.finish] on it afterwards.

    [faults] arms a {!Domino_fault.Plan} on the run's network
    ({!Domino_fault.Inject.install}) and switches on client retry: the
    harness-side {!Retry} wrapper for Mencius/EPaxos/Multi-Paxos/Fast
    Paxos, Domino's in-protocol retry+failover via params. The result's
    [extra] then also carries [harness_retries] / [harness_abandoned].

    [dedup] (default [true]) guards each replica's execution stream
    with {!Service.Dedup}, so retried ops apply at most once to the
    stores/journal; [~dedup:false] is the deliberately-unsafe mutant
    used to prove the chaos checker catches double execution.

    [reconfig_mutant] (default [false]) is the stale-config mutant:
    replicas removed by a [reconfig] plan event keep their network
    endpoints and go on executing — the deliberately-broken build used
    to prove the checker's removed-node rule catches it.

    [store] (default {!Domino_store.Store.default_params}) parameterizes
    each replica's simulated stable store: fsync/append/snapshot
    latency, group-commit mode, and the [durable = false] skip-fsync
    mutant the chaos tests use to prove the checker catches recovery
    from acknowledged-but-lost writes. *)

val seed_for : int64 -> int -> int64
(** [seed_for base i] is the i-th task's derived seed, the same
    spacing every sweep in this module uses — exposed so sibling
    sweeps (the rebalance determinism sweep) seed and label their runs
    identically. *)

val run_many :
  ?runs:int ->
  ?seed:int64 ->
  ?rate:float ->
  ?alpha:float ->
  ?duration:Time_ns.span ->
  ?jobs:int ->
  setting ->
  protocol ->
  Domino_stats.Summary.t * Domino_stats.Summary.t
(** [(commit_latency_ms, exec_latency_ms)] merged over [runs] (default
    3) independent seeds. Runs execute on up to [jobs] (default:
    {!Domino_par.Par.jobs}, i.e. the CLI's [--jobs]) domains; each run
    is fully isolated and results merge in seed order, so the output
    is byte-identical for every [jobs] value. *)

val run_sweep :
  ?runs:int ->
  ?seed:int64 ->
  ?rate:float ->
  ?alpha:float ->
  ?duration:Time_ns.span ->
  ?jobs:int ->
  ?journal:Journal.t ->
  ?timeline:Timeline.agg ->
  ?faults:Domino_fault.Plan.t ->
  ?store:Domino_store.Store.params ->
  (setting * protocol) list ->
  (Domino_stats.Summary.t * Domino_stats.Summary.t) list
(** One {!run_many} per [(setting, protocol)] cell, with all
    [cells x runs] (default [runs] 1) simulations flattened into a
    single work queue across [jobs] domains — the unit every
    [exp_fig*] sweep is built on. Results are returned in cell order,
    each merged in seed order; byte-identical for every [jobs]. Cell
    [i]'s run [r] uses the same seed as [run_many] run [r], so a sweep
    row equals the corresponding standalone [run_many].

    [journal] records every task's run into a per-task ring (same
    capacity as the parent) and merges them into [journal] in task
    order, each preceded by a [Mark] naming the (cell, run, seed) —
    the merged stream is byte-identical for every [jobs].

    [timeline] likewise: every task aggregates its own windowed
    timeline online (window taken from the caller's collector), and the
    finished per-task segments are absorbed into [timeline] in task
    order with the same (cell, run, seed) labels — so
    [Timeline.finish timeline] after the sweep is byte-identical (CSV,
    JSON) for every [jobs], and element-for-element equal to offline
    replay of the merged [journal]. *)

val closest_replica : setting -> client_dc:string -> int
(** Index of the replica with the lowest RTT to the client's
    datacenter (static, as the paper pre-configures for Mencius and
    EPaxos). *)
