open Domino_sim
open Domino_net
open Domino_obs

(** Shared machinery for reproducing the paper's experiments (§7.1).

    A {!setting} is a cluster layout: the topology, which datacenters
    host replicas, which host clients, and where the Multi-Paxos
    leader / Fast Paxos & DFP coordinator live. {!run} executes one
    simulated experiment of a given protocol over a setting — as the
    one-group case of the shard fabric, dispatching through the
    protocol's {!Protocols.resolve}d module, so it contains no
    per-protocol wiring — and returns the fabric's result: the group's
    recorder with its latency samples, plus the run's metrics registry
    and (optional) latency provenance; {!run_sweep} repeats it with
    different seeds and merges results, the paper's 10-runs-combined
    methodology. *)

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
  ?faults:Domino_fault.Plan.t ->
  ?store:Domino_store.Store.params ->
  setting ->
  Protocols.t ->
  Domino_shard.Fabric.result
(** The shard fabric's result for a one-group run: the group's recorder
    and counters are [groups.(0)]. Defaults: 200 req/s per client,
    alpha 0.75, 30 s runs measured over \[5 s, 28 s\] — a scaled-down
    version of the paper's 90 s runs measured over the middle 60 s.

    [metrics] shares a caller's registry (default: a fresh one, in
    [result.metrics]).

    [journal] turns on the flight recorder: every network, timer, op
    lifecycle and phase event of the run lands in the given journal,
    gauges are sampled into it every 100 ms of sim time, and
    [result.provenance] carries the critical-path latency decomposition
    (also recorded as [prov.*] histograms in the metrics registry). Without [journal], none of this costs anything
    beyond one variant match per hook.

    [timeline] feeds the given {!Domino_obs.Timeline} collector online
    as the run executes (installing a throwaway journal when [journal]
    is absent); call [Timeline.finish] on it afterwards.

    [faults] arms a {!Domino_fault.Plan} on the run's network
    ({!Domino_fault.Inject.install}) and switches on client retry: the
    one {!Domino_smr.Retry} loop, resending through the protocol's own
    submit for Mencius/EPaxos/Multi-Paxos/Fast Paxos and by Domino's DM
    failover rule for Domino, whose params
    {!Protocols.params_under_faults} arms. Under the generic resend the
    group's [extra] then also carries [harness_retries] /
    [harness_abandoned]; Domino's extra always carries its clients'
    [client_retries] / [client_abandoned].

    Each replica's execution stream is guarded by the group's op ledger
    ({!Domino_smr.Observer.Recorder.execute}), so retried ops apply at
    most once to the stores/journal.

    [store] (default {!Domino_store.Store.default_params}) parameterizes
    each replica's simulated stable store: fsync/append/snapshot
    latency and group-commit mode. *)

val seed_for : int64 -> int -> int64
(** [seed_for base i] is the i-th task's derived seed, the same
    spacing every sweep in this module uses — exposed so sibling
    sweeps (the rebalance determinism sweep) seed and label their runs
    identically. *)

val fan_out :
  ?jobs:int ->
  ?journal:Journal.t ->
  ?timeline:Timeline.agg ->
  label:(int -> string) ->
  (int -> journal:Journal.t option -> timeline:Timeline.agg option -> 'a) ->
  int ->
  'a array
(** [fan_out ~label task n] runs [task 0 .. task (n - 1)] on up to
    [jobs] (default {!Domino_par.Par.jobs}) domains and returns their
    results in task order. Each task must be an isolated simulation.

    With [journal], task [i] records into its own ring of the same
    capacity; afterwards, in task order, each ring is appended to
    [journal] after a [Mark] labelled [label i]. With [timeline], task
    [i] aggregates its own timeline (the caller's window), fed that
    mark first, and the finished segments are absorbed into [timeline]
    in task order. Both merged outputs are byte-identical for every
    [jobs]. *)

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
  (setting * Protocols.t) list ->
  (Domino_stats.Summary.t * Domino_stats.Summary.t) list
(** [(commit_latency_ms, exec_latency_ms)] per [(setting, protocol)]
    cell, each merged over [runs] (default 1) independent seeds — the
    paper's runs-combined methodology and the unit every [exp_fig*]
    sweep is built on. All [cells x runs] simulations form one
    {!fan_out} work queue across [jobs] domains; run [r] of every cell
    uses seed [seed_for seed r]. Results are returned in cell order,
    each merged in seed order; byte-identical for every [jobs].

    [journal] and [timeline] are merged as {!fan_out} describes, each
    task labelled [cell=<i> run=<r> seed=<seed>] — so
    [Timeline.finish timeline] after the sweep is byte-identical (CSV,
    JSON) for every [jobs], and element-for-element equal to offline
    replay of the merged [journal]. *)

val closest_replica : setting -> client_dc:string -> int
(** Index of the replica with the lowest RTT to the client's
    datacenter (static, as the paper pre-configures for Mencius and
    EPaxos). *)
