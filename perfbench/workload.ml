open Domino_sim
open Domino_obs
open Domino_shard
module Checker = Domino_fault.Checker
module Exp_common = Domino_exp.Exp_common
module Protocols = Domino_exp.Protocols
module Summary = Domino_stats.Summary

type kind = Globe3_steady | Na3_recorded | Na3_ops_faults

type spec = {
  kind : kind;
  name : string;
  duration : Time_ns.span;
  measure_from : Time_ns.span;
  measure_until : Time_ns.span;
  runs : int;
}

let rate = 200.
let alpha = 0.75

(* No crash/recover pair: a VA crash at 3.5 s healed at 4.5 s gives
   real-time ordering violations at seeds 2 and 3 (README.md, "Known
   checker failures"), and a failing plan is not benchmarked. *)
let ops_plan =
  "at 1500ms migrate slot=0 from=0 to=1\n\
   at 4s wipe node=2\n\
   at 7s transfer group=1 to=0\n"

(* The plan migrates once; every migration must finish. *)
let ops_plan_migrations = 1

let kinds =
  [
    ("globe3-steady", Globe3_steady);
    ("na3-recorded", Na3_recorded);
    ("na3-ops-faults", Na3_ops_faults);
  ]

let names = List.map fst kinds

(* Lengths picked so one timed body takes about a wall second here:
   the recorded workload's analyses grow faster than linearly with the
   journal, so it simulates the least; the ops plan needs 7 s. *)
let default_duration = function
  | Globe3_steady -> Time_ns.sec 10
  | Na3_recorded -> Time_ns.sec 1
  | Na3_ops_faults -> Time_ns.sec 10

(* One run's percentiles move by up to 30% from seed to seed (the
   two-group Domino p50 sits on one of a few discrete paths, 52 to
   67 ms); figures over k independent runs move by about 1/sqrt k of
   that. The short recorded runs need many so that fewer than half of
   them catch a latency episode (see [Bench.pooled]); at 8 runs the
   other two workloads' gated p99 still spread by 7-9% over seeds, and
   the faulted runs' p99 varies most: pooled over 16 runs it still
   spread by 10% over ten seeds. *)
let default_runs = function
  | Globe3_steady -> 12
  | Na3_recorded -> 16
  | Na3_ops_faults -> 24

let spec ?duration ?runs name =
  Option.map
    (fun kind ->
      let duration =
        match duration with Some d -> d | None -> default_duration kind
      in
      let runs = match runs with Some r -> r | None -> default_runs kind in
      (* [Fabric.run]'s own default window, spelled out so the goodput
         denominator is defined here. *)
      {
        kind;
        name;
        duration;
        measure_from = Stdlib.min (Time_ns.sec 5) (duration / 4);
        measure_until = duration - Stdlib.min (Time_ns.sec 2) (duration / 8);
        runs;
      })
    (List.assoc_opt name kinds)

let seeds spec ~seed = List.init spec.runs (Exp_common.seed_for seed)

let window_s spec = Time_ns.to_sec_f (spec.measure_until - spec.measure_from)

let single_group (s : Exp_common.setting) proto ledger =
  {
    Fabric.topo = s.Exp_common.topo;
    client_dcs = s.Exp_common.client_dcs;
    groups =
      [|
        {
          Fabric.replica_dcs = s.Exp_common.replica_dcs;
          leader = s.Exp_common.leader;
          protocol = Ledger.wrap ledger (Protocols.resolve proto);
          params = Protocols.params proto;
        };
      |];
    slots = Slots.Hash { slots = 1 };
  }

(* The rebalance experiment's layout with its chaos posture: Domino's
   in-protocol client retry armed, as every faulted Domino run does. *)
let two_groups ledger =
  let s = Exp_common.na3 in
  let leaders =
    Placement.spread_leaders s.Exp_common.topo
      ~replica_dcs:s.Exp_common.replica_dcs ~client_dcs:s.Exp_common.client_dcs
      ~groups:2
  in
  let params =
    {
      (Protocols.params Protocols.domino_default) with
      Domino_smr.Protocol_intf.retry_timeout = Time_ns.ms 800;
      retry_max_attempts = 6;
      retry_failover_after = 1;
    }
  in
  {
    Fabric.topo = s.Exp_common.topo;
    client_dcs = s.Exp_common.client_dcs;
    groups =
      Array.init 2 (fun k ->
          {
            Fabric.replica_dcs = s.Exp_common.replica_dcs;
            leader = leaders.(k);
            protocol =
              Ledger.wrap ledger (Protocols.resolve Protocols.domino_default);
            params;
          });
    slots = Slots.Range { slots = 16; keys = 1_000_000 };
  }

let config spec ledger =
  match spec.kind with
  | Globe3_steady -> single_group Exp_common.globe3 Protocols.domino_default ledger
  | Na3_recorded -> single_group Exp_common.na3 Protocols.Multi_paxos ledger
  | Na3_ops_faults -> two_groups ledger

let faults spec =
  match spec.kind with
  | Na3_ops_faults -> (
    match Domino_fault.Plan.parse ops_plan with
    | Ok p -> Some p
    | Error e -> invalid_arg ("ops plan: " ^ e))
  | Globe3_steady | Na3_recorded -> None

let fabric_run spec ~seed ?journal ?timeline ledger =
  Fabric.run ~seed ~rate ~alpha ~duration:spec.duration
    ~measure_from:spec.measure_from ~measure_until:spec.measure_until ?journal
    ?timeline ?faults:(faults spec) (config spec ledger)

type sinks = Workload_sinks | Sinks_off

type run = {
  result : Fabric.result;
  ledger : Ledger.t;
  wall_s : float;
  setup_s : float;
  loop_s : float;
  post_run_s : float;
  journal : Journal.t option;
  journal_bytes : int;
  to_lines_s : float;
  checker : Checker.report option;
  checker_s : float;
  timeline_s : float;
  dips : Dip.report list;
}

(* Big enough that a recorded run never overwrites: an overflowed ring
   makes the checker unsound. [check] asserts it. *)
let full_capacity = 1 lsl 21

let make_sinks spec = function
  | Sinks_off -> (None, None)
  | Workload_sinks -> (
    match spec.kind with
    | Globe3_steady -> (None, None)
    | Na3_recorded ->
      (Some (Journal.create ~capacity:full_capacity ()), Some (Timeline.create ()))
    | Na3_ops_faults ->
      (* Exactly the capacity-1 throwaway ring [Fabric.run ~timeline]
         installs by itself; passing it in lets the ledger count the
         events recorded. *)
      ( Some (Journal.create ~capacity:1 ()),
        Some (Timeline.create ~group_resolver:Slots.resolver_of_mark ()) ))

let timed f =
  let t0 = Ledger.now () in
  let v = f () in
  (v, Ledger.now () -. t0)

let check_journal j =
  Checker.check ~slot_resolver:Slots.slot_resolver_of_mark j

let execute ?(sinks = Workload_sinks) spec ~seed mode =
  let ledger = Ledger.create mode in
  let t0 = Ledger.now () in
  let journal, timeline = make_sinks spec sinks in
  let entry = Ledger.now () in
  let result = fabric_run spec ~seed ?journal ?timeline ledger in
  let return = Ledger.now () in
  (* The analyses a [run --check --journal-out --timeline-out] user pays
     for, each timed on its own. *)
  let (journal_bytes, to_lines_s), (checker, checker_s) =
    match (spec.kind, journal) with
    | Na3_recorded, Some j ->
      ( timed (fun () -> String.length (Journal.to_lines j)),
        let r, s = timed (fun () -> check_journal j) in
        (Some r, s) )
    | _ -> ((0, 0.), (None, 0.))
  in
  let dips, timeline_s =
    match timeline with
    | None -> ([], 0.)
    | Some agg ->
      timed (fun () ->
          let tl = Timeline.finish agg in
          if spec.kind = Na3_recorded then ignore (Timeline.to_csv tl);
          Dip.analyze tl)
  in
  let wall_s = Ledger.now () -. t0 in
  let first = Ledger.first_event ledger and last = Ledger.last_event ledger in
  {
    result;
    ledger;
    wall_s;
    setup_s = first -. entry;
    loop_s = last -. first;
    post_run_s = return -. last;
    journal;
    journal_bytes;
    to_lines_s;
    checker;
    checker_s;
    timeline_s;
    dips;
  }

type probe_sinks = Journal.t option * Timeline.agg option

let probe_sinks spec = make_sinks spec Workload_sinks

let setup_probe spec ~seed ((journal, timeline) : probe_sinks) =
  let ledger = Ledger.create Ledger.Setup_only in
  let entry = Ledger.now () in
  match fabric_run spec ~seed ?journal ?timeline ledger with
  | _ -> failwith "setup probe: Fabric.run returned without an event"
  | exception Ledger.Setup_done -> Ledger.first_event ledger -. entry

let validate spec ~seed =
  match spec.kind with
  | Globe3_steady | Na3_recorded -> []
  | Na3_ops_faults ->
    let j = Journal.create ~capacity:full_capacity () in
    ignore (fabric_run spec ~seed ~journal:j (Ledger.create Ledger.Plain));
    let r = check_journal j in
    (if Journal.dropped j > 0 then [ "plan check: journal overflowed" ]
     else [])
    @
    if r.Checker.ok then []
    else
      Printf.sprintf "plan check: %d checker violations"
        (List.length r.Checker.violations)
      :: List.filteri (fun i _ -> i < 3) r.Checker.violations

(* --- figures --- *)

let groups run = Array.to_list run.result.Fabric.groups

let sum f run = List.fold_left (fun acc g -> acc + f g) 0 (groups run)

let extra key (g : Fabric.group_result) =
  Option.value (List.assoc_opt key g.Fabric.extra) ~default:0

let merged f run =
  List.fold_left
    (fun acc (g : Fabric.group_result) -> Summary.merge acc (f g.Fabric.recorder))
    (Summary.create ()) (groups run)

let submitted run =
  sum (fun g -> Domino_smr.Observer.Recorder.submitted g.Fabric.recorder) run

let committed run =
  sum (fun g -> Domino_smr.Observer.Recorder.committed g.Fabric.recorder) run

let ratio a b = if b = 0. then 0. else a /. b

let max_of = List.fold_left Float.max 0.

let latencies run =
  ( merged Domino_smr.Observer.Recorder.commit_latency_ms run,
    merged Domino_smr.Observer.Recorder.exec_latency_ms run )

let simulated spec run =
  let commit, exec = latencies run in
  let sub = float_of_int (submitted run) in
  [
    ("commit_p50_ms", Summary.percentile commit 50.);
    ("commit_p99_ms", Summary.percentile commit 99.);
    ("commit_p999_ms", Summary.percentile commit 99.9);
    ("commit_samples", float_of_int (Summary.count commit));
    ("exec_p50_ms", Summary.percentile exec 50.);
    ("goodput_ops_s", float_of_int (Summary.count commit) /. window_s spec);
    ("ops_submitted", sub);
    ("ops_committed", float_of_int (committed run));
    ("ops_failed_ratio", ratio (sub -. float_of_int (committed run)) sub);
  ]

let fault_figures run =
  [
    ("dip_pct_max", max_of (List.map (fun r -> r.Dip.dip_pct) run.dips));
    ("ttr_ms_max", max_of (List.map (fun r -> r.Dip.ttr_ms) run.dips));
  ]

let msg_counts run =
  let counters =
    match Metrics.to_json run.result.Fabric.metrics with
    | Domino_stats.Json.Obj fields -> (
      match List.assoc_opt "counters" fields with
      | Some (Domino_stats.Json.Obj cs) -> cs
      | _ -> [])
    | _ -> []
  in
  let has_msg name =
    let n = String.length name in
    let rec go i = i + 5 <= n && (String.sub name i 5 = ".msg." || go (i + 1)) in
    go 0
  in
  let total suffix =
    List.fold_left
      (fun acc (name, v) ->
        match v with
        | Domino_stats.Json.Int c
          when has_msg name && String.ends_with ~suffix name ->
          acc + c
        | _ -> acc)
      0 counters
  in
  (total ".sent", total ".delivered", total ".dropped")

let counts run =
  let r = run.result in
  let f = float_of_int in
  let commits = f (committed run) in
  let events =
    match Metrics.find_gauge r.Fabric.metrics "sim.events" with
    | Some g -> Metrics.gauge_value g
    | None -> 0.
  in
  let sent, delivered, dropped = msg_counts run in
  let x key = f (sum (extra key) run) in
  let store key =
    f
      (sum
         (fun g ->
           match
             Metrics.find_counter r.Fabric.metrics (g.Fabric.prefix ^ "store." ^ key)
           with
           | Some c -> Metrics.counter_value c
           | None -> 0)
         run)
  in
  let recoveries = List.concat_map (fun g -> g.Fabric.recovery_ms) (groups run) in
  let routed = List.map (fun g -> f g.Fabric.routed) (groups run) in
  let journal_events, journal_dropped =
    match run.journal with
    | Some j -> (f (Journal.recorded j), f (Journal.dropped j))
    | None -> (0., 0.)
  in
  [
    ("sim.events", events);
    ("sim.events_per_commit", ratio events commits);
    ("net.msgs_sent", f sent);
    ("net.msgs_delivered", f delivered);
    ("net.msgs_dropped", f dropped);
    ("net.msgs_per_commit", ratio (f sent) commits);
    ("core.dfp_fast_ratio", ratio (x "dfp_fast_decisions") (x "dfp_submissions"));
    ( "core.dm_share",
      ratio (x "dm_submissions") (x "dm_submissions" +. x "dfp_submissions") );
    ("core.dfp_conflicts", x "dfp_conflicts");
    ("core.late_decisions", x "late_decisions");
    ("proto.fast_commits", f (sum (fun g -> g.Fabric.fast_commits) run));
    ("proto.slow_commits", f (sum (fun g -> g.Fabric.slow_commits) run));
    ("store.syncs", store "syncs");
    ("store.sync_writes_per_commit", ratio (store "sync_writes") commits);
    ("store.recoveries", f (List.length recoveries));
    ("store.recovery_ms_max", max_of recoveries);
    ("smr.retries", x "client_retries" +. x "harness_retries");
    ("smr.abandoned", x "client_abandoned" +. x "harness_abandoned");
    ("smr.dedup_suppressed", x "dedup_suppressed");
    ( "shard.routed_max_over_min",
      ratio (List.fold_left Float.max 0. routed)
        (List.fold_left Float.min Float.infinity routed) );
    ("shard.migrations", f (List.length r.Fabric.migrations));
    ( "shard.migrations_aborted",
      f (List.length (List.filter (fun o -> o.Migrate.aborted) r.Fabric.migrations))
    );
    ("shard.hot_flags", f (Array.fold_left ( + ) 0 r.Fabric.hot_flags));
    ("obs.journal_events", journal_events);
    ("obs.journal_dropped", journal_dropped);
    ("obs.journal_bytes", f run.journal_bytes);
    ( "fault.violations",
      match run.checker with
      | Some c -> f (List.length c.Checker.violations)
      | None -> 0. );
  ]

let check spec run =
  let r = run.result in
  let errors = ref [] in
  let fail fmt = Printf.ksprintf (fun s -> errors := s :: !errors) fmt in
  Array.iteri
    (fun k (g : Fabric.group_result) ->
      match g.Fabric.store_fingerprints with
      | fp :: rest when List.for_all (Int.equal fp) rest -> ()
      | _ -> fail "group %d: replica store fingerprints differ" k)
    r.Fabric.groups;
  if committed run = 0 then fail "no operation committed";
  (match spec.kind with
  | Globe3_steady -> ()
  | Na3_recorded -> (
    (match run.journal with
    | Some j when Journal.dropped j > 0 ->
      fail "journal ring overflowed (%d dropped)" (Journal.dropped j)
    | _ -> ());
    match run.checker with
    | Some c when not c.Checker.ok ->
      fail "checker: %d violations%s"
        (List.length c.Checker.violations)
        (match c.Checker.violations with v :: _ -> ", first: " ^ v | [] -> "")
    | _ -> ())
  | Na3_ops_faults ->
    let migrations = r.Fabric.migrations in
    if List.length migrations <> ops_plan_migrations then
      fail "%d migrations finished, plan has %d" (List.length migrations)
        ops_plan_migrations;
    if List.exists (fun o -> o.Migrate.aborted) migrations then
      fail "a migration aborted";
    if Option.is_some run.journal && run.dips = [] then fail "no fault report";
    List.iter
      (fun (d : Dip.report) ->
        if not (Float.is_finite d.Dip.ttr_ms) then
          fail "fault %s %s never recovered" d.Dip.fault d.Dip.detail)
      run.dips);
  List.rev !errors
