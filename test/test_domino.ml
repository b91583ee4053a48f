(* Tests for Domino itself: the DFP coordinator's decision rules (unit
   level), and the assembled protocol end-to-end (fast path, slow
   path, DFP/DM selection, failures, clock skew, execution safety). *)

open Domino_sim
open Domino_net
open Domino_smr
open Domino_core
open Domino_exp

let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)

(* ------------------------------------------------------------------ *)
(* Unit tests: Dfp_coordinator decision rules                          *)
(* ------------------------------------------------------------------ *)

type coord_log = {
  mutable commits : (Time_ns.t * Op.t option) list;
  mutable p2as : (Time_ns.t * Op.t option) list;
  mutable slow_replies : Op.t list;
  mutable watermarks : Time_ns.t list;
  mutable rescued : Op.t list;
}

let mk_coord () =
  let log =
    { commits = []; p2as = []; slow_replies = []; watermarks = []; rescued = [] }
  in
  let cfg = Config.make ~replicas:[| 0; 1; 2 |] () in
  let cb =
    {
      Dfp_coordinator.send_commit = (fun ts v -> log.commits <- (ts, v) :: log.commits);
      send_p2a = (fun ts v -> log.p2as <- (ts, v) :: log.p2as);
      send_slow_reply = (fun op -> log.slow_replies <- op :: log.slow_replies);
      send_watermark = (fun w -> log.watermarks <- w :: log.watermarks);
      send_commit_to = (fun _ _ _ -> ());
      send_watermark_to = (fun _ _ ~complete:_ -> ());
      rescue = (fun op -> log.rescued <- op :: log.rescued);
    }
  in
  (Dfp_coordinator.create cfg cb, log)

let op ?(client = 9) ?(seq = 0) () = Op.make ~client ~seq ~key:1 ~value:1L

let accept o = Message.Voted_op o

let test_coord_fast_path () =
  let c, log = mk_coord () in
  let o = op () in
  let ts = Time_ns.ms 100 in
  for i = 0 to 2 do
    Dfp_coordinator.on_vote c ~ts ~subject:o ~report:(accept o) ~acceptor:i
      ~watermark:(Time_ns.ms 50)
  done;
  (match log.commits with
  | [ (t, Some o') ] ->
    check_int "ts" ts t;
    check_bool "op" true (Op.id o' = Op.id o)
  | _ -> Alcotest.fail "expected one op commit");
  check_int "fast" 1 (Dfp_coordinator.fast_decisions c);
  check_int "slow" 0 (Dfp_coordinator.slow_decisions c);
  check_bool "no slow reply on fast path" true (log.slow_replies = []);
  check_bool "no rescue" true (log.rescued = [])

let test_coord_slow_path_recovers_op () =
  (* Figure 6: two accepts + one no-op reject -> coordinated recovery
     must pick the op (accepted by q-f=2 of the first quorum). *)
  let c, log = mk_coord () in
  let o = op () in
  let ts = Time_ns.ms 100 in
  Dfp_coordinator.on_vote c ~ts ~subject:o ~report:(accept o) ~acceptor:0
    ~watermark:(Time_ns.ms 50);
  Dfp_coordinator.on_vote c ~ts ~subject:o ~report:(accept o) ~acceptor:1
    ~watermark:(Time_ns.ms 50);
  check_bool "undecided before third vote" true (log.commits = []);
  Dfp_coordinator.on_vote c ~ts ~subject:o ~report:Message.Voted_noop
    ~acceptor:2 ~watermark:(Time_ns.ms 200);
  (match log.p2as with
  | [ (t, Some o') ] ->
    check_int "recovery at ts" ts t;
    check_bool "recovers op" true (Op.id o' = Op.id o)
  | _ -> Alcotest.fail "expected recovery P2a with the op");
  (* Majority of P2bs decides. *)
  Dfp_coordinator.on_p2b c ~ts ~acceptor:0;
  check_bool "one p2b insufficient" true (log.commits = []);
  Dfp_coordinator.on_p2b c ~ts ~acceptor:1;
  (match log.commits with
  | [ (_, Some o') ] -> check_bool "op committed" true (Op.id o' = Op.id o)
  | _ -> Alcotest.fail "expected commit after majority p2b");
  check_int "slow" 1 (Dfp_coordinator.slow_decisions c);
  check_bool "client notified via slow reply" true
    (List.exists (fun o' -> Op.id o' = Op.id o) log.slow_replies)

let test_coord_noop_wins_when_op_too_late () =
  (* Two no-op reports followed by a late accept: no value can reach
     q=3, and the first classic quorum of reports is all no-op, so
     recovery must choose no-op; the op is rescued through DM. *)
  let c, log = mk_coord () in
  let o = op () in
  let ts = Time_ns.ms 100 in
  Dfp_coordinator.on_vote c ~ts ~subject:o ~report:Message.Voted_noop
    ~acceptor:0 ~watermark:(Time_ns.ms 90);
  Dfp_coordinator.on_vote c ~ts ~subject:o ~report:Message.Voted_noop
    ~acceptor:1 ~watermark:(Time_ns.ms 90);
  check_bool "still waiting for third report" true (log.p2as = []);
  Dfp_coordinator.on_vote c ~ts ~subject:o ~report:(accept o) ~acceptor:2
    ~watermark:(Time_ns.ms 90);
  (match log.p2as with
  | [ (_, None) ] -> ()
  | _ -> Alcotest.fail "expected recovery with noop");
  Dfp_coordinator.on_p2b c ~ts ~acceptor:0;
  Dfp_coordinator.on_p2b c ~ts ~acceptor:2;
  (match log.commits with
  | [ (_, None) ] -> ()
  | _ -> Alcotest.fail "expected noop commit");
  check_bool "op rescued" true
    (List.exists (fun o' -> Op.id o' = Op.id o) log.rescued)

let test_coord_noop_fast_commit_when_all_expired () =
  (* Two explicit no-op votes plus a heartbeat covering the position
     from the third acceptor = q no-op accepts: the no-op commits on
     the fast path, no recovery round needed. *)
  let c, log = mk_coord () in
  let o = op () in
  let ts = Time_ns.ms 100 in
  Dfp_coordinator.on_vote c ~ts ~subject:o ~report:Message.Voted_noop
    ~acceptor:0 ~watermark:(Time_ns.ms 150);
  Dfp_coordinator.on_vote c ~ts ~subject:o ~report:Message.Voted_noop
    ~acceptor:1 ~watermark:(Time_ns.ms 150);
  Dfp_coordinator.on_heartbeat c ~acceptor:2 ~watermark:(Time_ns.ms 150);
  (match log.commits with
  | [ (_, None) ] -> ()
  | _ -> Alcotest.fail "expected fast noop commit");
  check_bool "no recovery" true (log.p2as = []);
  check_bool "op rescued" true
    (List.exists (fun o' -> Op.id o' = Op.id o) log.rescued)

let test_coord_bulk_noop_watermark () =
  let c, log = mk_coord () in
  (* All replicas report noop fill up to 1s: every position below is
     decided, so the decided watermark advances to just under 1s. *)
  for i = 0 to 2 do
    Dfp_coordinator.on_heartbeat c ~acceptor:i ~watermark:(Time_ns.sec 1)
  done;
  Dfp_coordinator.tick c;
  check_int "w_dec" (Time_ns.sec 1 - 1) (Dfp_coordinator.decided_watermark c);
  (match log.watermarks with
  | [ w ] -> check_int "announced" (Time_ns.sec 1 - 1) w
  | _ -> Alcotest.fail "expected one watermark");
  Dfp_coordinator.tick c;
  check_int "no duplicate announcements" 1 (List.length log.watermarks)

let test_coord_watermark_uses_qth () =
  let c, _log = mk_coord () in
  (* q = 3 for n = 3: the smallest watermark gates bulk no-ops. *)
  Dfp_coordinator.on_heartbeat c ~acceptor:0 ~watermark:(Time_ns.ms 300);
  Dfp_coordinator.on_heartbeat c ~acceptor:1 ~watermark:(Time_ns.ms 200);
  Dfp_coordinator.on_heartbeat c ~acceptor:2 ~watermark:(Time_ns.ms 100);
  check_int "q-th largest - 1" (Time_ns.ms 100 - 1)
    (Dfp_coordinator.decided_watermark c)

let test_coord_undecided_position_blocks_watermark () =
  let c, _log = mk_coord () in
  let o = op () in
  let ts = Time_ns.ms 500 in
  Dfp_coordinator.on_vote c ~ts ~subject:o ~report:(accept o) ~acceptor:0
    ~watermark:(Time_ns.ms 400);
  for i = 0 to 2 do
    Dfp_coordinator.on_heartbeat c ~acceptor:i ~watermark:(Time_ns.sec 1)
  done;
  (* Bulk coverage reaches 1s but the tracked position at 500ms is
     undecided: the decided watermark must stall just below it. *)
  check_int "stalls below undecided" (ts - 1)
    (Dfp_coordinator.decided_watermark c);
  check_int "one undecided" 1 (Dfp_coordinator.undecided_positions c)

let test_coord_late_vote_is_rescued () =
  let c, log = mk_coord () in
  for i = 0 to 2 do
    Dfp_coordinator.on_heartbeat c ~acceptor:i ~watermark:(Time_ns.sec 1)
  done;
  let o = op () in
  (* The position expired long ago (below the decided watermark). *)
  Dfp_coordinator.on_vote c ~ts:(Time_ns.ms 10) ~subject:o
    ~report:Message.Voted_noop ~acceptor:1 ~watermark:(Time_ns.sec 1);
  check_bool "rescued immediately" true
    (List.exists (fun o' -> Op.id o' = Op.id o) log.rescued);
  check_int "counted as conflict" 1 (Dfp_coordinator.noop_conflicts c)

let test_coord_collision_two_ops () =
  let c, log = mk_coord () in
  let o1 = op ~client:7 () and o2 = op ~client:8 () in
  let ts = Time_ns.ms 100 in
  (* Two clients picked the same position; acceptors voted first-come:
     2 for o1, 1 for o2. *)
  Dfp_coordinator.on_vote c ~ts ~subject:o1 ~report:(accept o1) ~acceptor:0
    ~watermark:0;
  Dfp_coordinator.on_vote c ~ts ~subject:o2 ~report:(accept o1) ~acceptor:1
    ~watermark:0;
  Dfp_coordinator.on_vote c ~ts ~subject:o2 ~report:(accept o2) ~acceptor:2
    ~watermark:0;
  (* o1 has 2 accepts >= q-f: recovery must choose o1. *)
  (match log.p2as with
  | [ (_, Some w) ] -> check_bool "o1 chosen" true (Op.id w = Op.id o1)
  | _ -> Alcotest.fail "expected recovery");
  Dfp_coordinator.on_p2b c ~ts ~acceptor:0;
  Dfp_coordinator.on_p2b c ~ts ~acceptor:1;
  check_bool "o2 rescued" true
    (List.exists (fun o' -> Op.id o' = Op.id o2) log.rescued);
  check_bool "o1 not rescued" true
    (not (List.exists (fun o' -> Op.id o' = Op.id o1) log.rescued))

let test_coord_duplicate_votes_ignored () =
  let c, log = mk_coord () in
  let o = op () in
  let ts = Time_ns.ms 100 in
  for _ = 1 to 5 do
    Dfp_coordinator.on_vote c ~ts ~subject:o ~report:(accept o) ~acceptor:0
      ~watermark:0
  done;
  check_bool "not decided from one acceptor" true (log.commits = [])

(* ------------------------------------------------------------------ *)
(* Unit tests: the §5.4 feedback controller                            *)
(* ------------------------------------------------------------------ *)

(* The controller's window is 50 outcomes, its step 2 ms and its cap
   32 ms. *)
let test_feedback_raises_extra_on_slow () =
  let f = Feedback.create ~baseline:0 in
  for _ = 1 to 50 do
    Feedback.record f Feedback.Slow
  done;
  check_bool "extra grew" true (Feedback.extra_delay f > 0);
  check_bool "gives up on DFP" true (Feedback.should_avoid_dfp f);
  Alcotest.(check (float 1e-9)) "rate 0" 0. (Feedback.fast_rate f)

let test_feedback_decays_when_healthy () =
  let f = Feedback.create ~baseline:0 in
  for _ = 1 to 50 do
    Feedback.record f Feedback.Slow
  done;
  let peak = Feedback.extra_delay f in
  for _ = 1 to 200 do
    Feedback.record f Feedback.Fast
  done;
  check_bool "decays toward baseline" true (Feedback.extra_delay f < peak);
  check_bool "dfp usable again" false (Feedback.should_avoid_dfp f)

let test_feedback_bounded () =
  let f = Feedback.create ~baseline:(Time_ns.ms 1) in
  for _ = 1 to 100 do
    Feedback.record f Feedback.Slow
  done;
  check_int "capped at max" (Time_ns.ms 32) (Feedback.extra_delay f);
  for _ = 1 to 10_000 do
    Feedback.record f Feedback.Fast
  done;
  check_int "never below baseline" (Time_ns.ms 1) (Feedback.extra_delay f)

let test_feedback_needs_data () =
  let f = Feedback.create ~baseline:0 in
  Feedback.record f Feedback.Slow;
  check_bool "no early give-up" false (Feedback.should_avoid_dfp f)

(* ------------------------------------------------------------------ *)
(* End-to-end tests                                                    *)
(* ------------------------------------------------------------------ *)

let quick_run ?(setting = Exp_common.globe3) ?(seed = 11L)
    ?(proto = Protocols.domino_default) ?(duration = Time_ns.sec 8) () =
  (Exp_common.run ~seed ~duration ~measure_from:(Time_ns.sec 2)
     ~measure_until:(duration - Time_ns.sec 1) setting proto)
    .Domino_shard.Fabric.groups.(0)

let test_e2e_liveness_convergence_safety () =
  let r = quick_run () in
  check_bool "all committed" true
    (Observer.Recorder.committed r.recorder
    = Observer.Recorder.submitted r.recorder);
  (match r.store_fingerprints with
  | x :: rest -> check_bool "converged" true (List.for_all (fun y -> y = x) rest)
  | [] -> Alcotest.fail "no stores");
  match List.assoc_opt "late_decisions" r.extra with
  | Some late -> check_int "no late decisions" 0 late
  | None -> Alcotest.fail "no stats"

let test_e2e_fast_path_dominates () =
  let r = quick_run ~proto:Protocols.domino_exec () in
  let total = r.fast_commits + r.slow_commits in
  check_bool "has dfp decisions" true (total > 0);
  check_bool "slow rare with +8ms" true
    (float_of_int r.slow_commits /. float_of_int total < 0.05)

let test_e2e_clients_split_dfp_dm () =
  (* Globe: VA/SG/HK are far from every replica and should use DFP;
     WA/PR/NSW are co-located with replicas and should use DM (§7.2.2). *)
  let r = quick_run () in
  let stat k =
    Option.value ~default:0 (List.assoc_opt k r.Domino_shard.Fabric.extra)
  in
  let dfp = stat "dfp_submissions" and dm = stat "dm_submissions" in
  check_bool "both subsystems used" true (dfp > 0 && dm > 0);
  let dfp_share = float_of_int dfp /. float_of_int (dfp + dm) in
  check_bool "roughly half DFP (3 of 6 clients)" true
    (dfp_share > 0.3 && dfp_share < 0.7)

let test_e2e_additional_delay_reduces_slow_paths () =
  let r0 = quick_run ~proto:Protocols.domino_default () in
  let r8 = quick_run ~proto:Protocols.domino_exec () in
  let frac (r : Domino_shard.Fabric.group_result) =
    let t = r.fast_commits + r.slow_commits in
    if t = 0 then 0. else float_of_int r.slow_commits /. float_of_int t
  in
  check_bool "8ms strictly fewer slow paths" true (frac r8 < frac r0)

let test_e2e_domino_beats_baselines_globe () =
  let p95 (r : Domino_shard.Fabric.group_result) =
    Domino_stats.Summary.percentile
      (Observer.Recorder.commit_latency_ms r.recorder)
      95.
  in
  let dom = quick_run () in
  let men = quick_run ~proto:Protocols.Mencius () in
  let mp = quick_run ~proto:Protocols.Multi_paxos () in
  check_bool "below mencius at p95" true (p95 dom < p95 men);
  check_bool "below multi-paxos at p95" true (p95 dom < p95 mp)

let test_e2e_replica_crash_steers_to_dm () =
  (* Crash a non-coordinator replica mid-run: DFP becomes impossible
     (supermajority = 3 of 3) and clients must keep committing via DM. *)
  let engine = Engine.create ~seed:5L () in
  let placement = [| "WA"; "PR"; "NSW"; "VA"; "SG" |] in
  let crash = ref ignore in
  let make_net ~classify:_ ~op_of:_ =
    let net = Topology.make_net engine Topology.globe ~placement in
    crash := Fifo_net.crash net;
    net
  in
  let recorder = Observer.Recorder.create () in
  let observer = Observer.Recorder.observer recorder in
  let replicas = [| 0; 1; 2 |] in
  let env =
    Durable.standalone engine ~replicas ~observer { Durable.make = make_net }
  in
  let d = Domino.create env (Config.make ~replicas ~coordinator:0 ()) in
  let crash_at = Time_ns.sec 4 in
  ignore (Engine.schedule_at engine ~at:crash_at (fun () -> !crash 2));
  let _w =
    Domino_kv.Workload.create ~rate:100. ~clients:[ 3; 4 ]
      ~duration:(Time_ns.sec 10) ~submit:(Domino.submit d) engine
  in
  Engine.run ~until:(Time_ns.sec 12) engine;
  (* Requests submitted well after the crash still commit. *)
  let late_commits =
    List.length
      (List.filter
         (fun (sent, _) -> sent > crash_at + Time_ns.sec 2)
         (Observer.Recorder.latency_series recorder))
  in
  check_bool "commits continue after crash" true (late_commits > 200);
  let s = Domino.stats d in
  check_int "execution never corrupted" 0 s.Domino.late_decisions

let test_e2e_clock_skew_tolerated () =
  (* Give every node a clock offset of up to ±50ms and drift: Domino
     must stay correct (skew folds into the OWD estimate, §5.4). *)
  let engine = Engine.create ~seed:9L () in
  let placement = [| "WA"; "PR"; "NSW"; "VA"; "HK" |] in
  let make_net ~classify:_ ~op_of:_ =
    let net = Topology.make_net engine Topology.globe ~placement in
    let rng = Engine.rng engine in
    for node = 0 to 4 do
      Fifo_net.set_clock net node
        (Clock.random rng ~max_offset:(Time_ns.ms 50) ~max_drift_ppm:5.)
    done;
    net
  in
  let recorder = Observer.Recorder.create () in
  Observer.Recorder.start_measuring recorder (Time_ns.sec 2);
  let observer = Observer.Recorder.observer recorder in
  let replicas = [| 0; 1; 2 |] in
  let env =
    Durable.standalone engine ~replicas ~observer { Durable.make = make_net }
  in
  let d = Domino.create env (Config.make ~replicas ~coordinator:0 ()) in
  let _w =
    Domino_kv.Workload.create ~rate:100. ~clients:[ 3; 4 ]
      ~duration:(Time_ns.sec 8) ~submit:(Domino.submit d) engine
  in
  Engine.run ~until:(Time_ns.sec 11) engine;
  check_int "all committed"
    (Observer.Recorder.submitted recorder)
    (Observer.Recorder.committed recorder);
  let s = Domino.stats d in
  check_int "no late decisions under skew" 0 s.Domino.late_decisions

let test_e2e_every_replica_learns_not_slower () =
  let exec_p50 proto =
    let r = quick_run ~proto () in
    Domino_stats.Summary.median (Observer.Recorder.exec_latency_ms r.recorder)
  in
  let base =
    exec_p50
      (Protocols.Domino
         { additional_delay = Time_ns.ms 8; percentile = 95.;
           every_replica_learns = false; adaptive = false })
  in
  let learn =
    exec_p50
      (Protocols.Domino
         { additional_delay = Time_ns.ms 8; percentile = 95.;
           every_replica_learns = true; adaptive = false })
  in
  (* §5.7: making every replica a learner reduces (or at worst keeps)
     execution delay. Allow noise. *)
  check_bool "learner mode not slower" true (learn < base +. 10.)

let test_e2e_adaptive_controller_improves_tail () =
  (* Same deployment, baseline additional delay 0: the adaptive client
     should end with fewer slow paths than the static one. *)
  let slow_frac proto =
    let r = quick_run ~proto () in
    let t = r.fast_commits + r.slow_commits in
    if t = 0 then 0. else float_of_int r.slow_commits /. float_of_int t
  in
  let static = slow_frac Protocols.domino_default in
  let adaptive =
    slow_frac
      (Protocols.Domino
         { additional_delay = 0; percentile = 95.;
           every_replica_learns = false; adaptive = true })
  in
  check_bool "static baseline has some slow paths" true (static > 0.);
  check_bool "adaptive has fewer slow paths" true (adaptive < static)

let test_e2e_adaptive_run () =
  (* Direct adaptive run: the controller raises per-client extra delay
     above the zero baseline and the run stays safe. *)
  let engine = Engine.create ~seed:21L () in
  let placement = [| "WA"; "PR"; "NSW"; "VA"; "SG"; "HK" |] in
  let make_net ~classify:_ ~op_of:_ =
    Topology.make_net engine Topology.globe ~placement
  in
  let recorder = Observer.Recorder.create () in
  let observer = Observer.Recorder.observer recorder in
  let replicas = [| 0; 1; 2 |] in
  let env =
    Durable.standalone engine ~replicas ~observer { Durable.make = make_net }
  in
  let d = Domino.create env (Config.make ~adaptive:true ~replicas ()) in
  let _w =
    Domino_kv.Workload.create ~rate:200. ~clients:[ 3; 4; 5 ]
      ~duration:(Time_ns.sec 10) ~submit:(Domino.submit d) engine
  in
  Engine.run ~until:(Time_ns.sec 13) engine;
  check_int "all committed"
    (Observer.Recorder.submitted recorder)
    (Observer.Recorder.committed recorder);
  let s = Domino.stats d in
  check_int "safe" 0 s.Domino.late_decisions;
  (* At least one DFP-using client should have raised its extra delay
     above the zero baseline (misprediction spikes are ~3%/message). *)
  let raised =
    List.exists
      (fun node -> Client.current_extra_delay (Domino.client d node) > 0)
      [ 3; 4; 5 ]
  in
  check_bool "controller engaged" true raised

let test_e2e_storage_compression () =
  let r = quick_run () in
  ignore r;
  (* Re-run with direct access to the replica storage stats. *)
  let engine = Engine.create ~seed:31L () in
  let placement = [| "WA"; "PR"; "NSW"; "VA" |] in
  let make_net ~classify:_ ~op_of:_ =
    Topology.make_net engine Topology.globe ~placement
  in
  let replicas = [| 0; 1; 2 |] in
  let env =
    Durable.standalone engine ~replicas ~observer:Observer.null
      { Durable.make = make_net }
  in
  let d = Domino.create env (Config.make ~replicas ()) in
  let _w =
    Domino_kv.Workload.create ~rate:200. ~clients:[ 3 ]
      ~duration:(Time_ns.sec 6) ~submit:(Domino.submit d)
      engine
  in
  Engine.run ~until:(Time_ns.sec 8) engine;
  let stats = Replica.storage_stats (Domino.replica d 0) in
  (* Billions of DFP positions, a bounded number of decisions held. *)
  check_bool "many positions covered" true
    (stats.Replica.dfp_positions_covered > 1_000_000_000);
  check_bool "decisions held bounded" true
    (stats.Replica.decisions_held < 5_000)

(* ------------------------------------------------------------------ *)
(* WAL snapshots                                                       *)
(* ------------------------------------------------------------------ *)

module Store = Domino_store.Store

(* The globe3 setting (replicas WA, PR, NSW; six clients at 200 req/s),
   built by hand to reach its stores. *)
let globe3_domino ?store_params ~seed ~duration () =
  let engine = Engine.create ~seed () in
  let placement =
    [| "WA"; "PR"; "NSW"; "VA"; "WA"; "PR"; "NSW"; "SG"; "HK" |]
  in
  let make_net ~classify:_ ~op_of:_ =
    Topology.make_net engine Topology.globe ~placement
  in
  let replicas = [| 0; 1; 2 |] in
  let env =
    Durable.standalone engine ~replicas ~observer:Observer.null
      { Durable.make = make_net }
  in
  let env =
    match store_params with
    | None -> env
    | Some params ->
      {
        env with
        Protocol_intf.Group.stores =
          Array.map
            (fun node ->
              Store.create engine ~node ~params
                ~journal:Domino_obs.Journal.null)
            replicas;
      }
  in
  let d = Domino.create env (Config.make ~replicas ()) in
  ignore
    (Domino_kv.Workload.create ~rate:200. ~clients:[ 3; 4; 5; 6; 7; 8 ]
       ~duration ~submit:(Domino.submit d) engine);
  (engine, d, env.Protocol_intf.Group.stores)

let store_counter store key = List.assoc key (Store.counters store)

(* Records the log holds: appended, less those a snapshot truncated. *)
let held store = store_counter store "appends" - store_counter store "truncated"

let test_wal_bounded () =
  let engine, _, stores =
    globe3_domino ~seed:7L ~duration:(Time_ns.sec 31) ()
  in
  Engine.run ~until:(Time_ns.ms 10_500) engine;
  let at_10s = Array.map held stores in
  Engine.run ~until:(Time_ns.ms 30_500) engine;
  Array.iteri
    (fun i store ->
      let per_sec = store_counter store "appends" * 2 / 61 in
      let now = held store in
      check_bool
        (Printf.sprintf "store %d holds at most 2 s of records (%d, %d/s)" i
           now per_sec)
        true
        (now <= 2 * per_sec);
      check_bool
        (Printf.sprintf "store %d holds about what it held at 10 s (%d, %d)" i
           now at_10s.(i))
        true
        (2 * now <= 3 * at_10s.(i) && 2 * at_10s.(i) <= 3 * now))
    stores

(* Every record a wipe would hand back, without journaling a replay. *)
let durable_records store =
  List.rev
    (Store.fold store ~from:0 ~upto:(Store.durable_upto store)
       (fun acc record -> record :: acc)
       [])

(* [got] is the state a replica rebuilt from a snapshot and its suffix,
   [want] the one it rebuilt from the whole log. They must agree field
   by field, except that a snapshot keeps only the DM instances still
   pending. *)
let check_same_state label ~got ~want =
  List.iter2
    (fun (field, g) (field', w) ->
      assert (field = field');
      if field = "dm_pending" then
        check_bool
          (label ^ ": snapshot's DM instances are among the log's")
          true
          (List.for_all (fun ts -> List.mem ts w) g)
      else if g <> w then
        Alcotest.failf "%s: %s differs after snapshot replay" label field)
    got want

(* The same run twice, once with snapshots that never land (the log is
   never truncated). At each wipe point, replaying a store's snapshot
   and suffix must rebuild what replaying its whole log does — just
   after a snapshot truncated the log, and between snapshots — and the
   snapshots must not have moved a single fsync. On the slow batched
   disk a snapshot lands while records it does not cover still wait
   for their barrier, so the records' pre-fsync effects must stay out
   of it. *)
let test_snapshot_replays_like_log () =
  let slow =
    {
      Store.default_params with
      sync_latency = Time_ns.ms 2;
      mode = Store.Batched (Time_ns.ms 5);
    }
  in
  List.iter
    (fun (disk, params, seed) ->
      let duration = Time_ns.sec 9 in
      let never = { params with Store.snapshot_latency = Time_ns.sec 1_000 } in
      let engine, d, stores =
        globe3_domino ~store_params:params ~seed ~duration ()
      in
      let engine_full, d_full, stores_full =
        globe3_domino ~store_params:never ~seed ~duration ()
      in
      (* Never run: its replica states are rebuilt from the records. *)
      let _, blank, _ = globe3_domino ~seed ~duration () in
      List.iter
        (fun at ->
          Engine.run ~until:at engine;
          Engine.run ~until:at engine_full;
          Array.iteri
            (fun i store ->
              let label =
                Printf.sprintf "%s, seed %Ld, replica %d at %.1f ms" disk seed
                  i (Time_ns.to_ms_f at)
              in
              check_int (label ^ ": snapshots left the fsync schedule alone")
                (store_counter stores_full.(i) "sync_writes")
                (store_counter store "sync_writes");
              if Domino.recovery_state d i <> Domino.recovery_state d_full i
              then Alcotest.failf "%s: the two runs diverged" label;
              check_bool (label ^ ": a snapshot truncated the log") true
                (store_counter store "truncated" > 0);
              check_int (label ^ ": the full log is whole") 0
                (store_counter stores_full.(i) "truncated");
              Domino.recover blank i (durable_records store);
              let got = Domino.recovery_state blank i in
              Domino.recover blank i (durable_records stores_full.(i));
              let want = Domino.recovery_state blank i in
              check_same_state label ~got ~want)
            stores)
        [ Time_ns.us 2_002_500; Time_ns.ms 4_500; Time_ns.us 6_002_500;
          Time_ns.ms 7_700 ])
    [
      ("NVMe", Store.default_params, 7L);
      ("NVMe", Store.default_params, 42L);
      ("disk 2ms, batched 5ms", slow, 7L);
    ]

(* A round-1 accept that has not synced yet overwrote a synced round-0
   one at the same position: the snapshot must keep the synced value,
   as replaying the log would. *)
let test_snapshot_keeps_overwritten_accept () =
  let slow =
    {
      Store.default_params with
      sync_latency = Time_ns.ms 2;
      mode = Store.Batched (Time_ns.ms 5);
    }
  in
  let engine, d, stores =
    globe3_domino ~store_params:slow ~seed:7L ~duration:0 ()
  in
  let _, blank, _ = globe3_domino ~seed:7L ~duration:0 () in
  let r = Domino.replica d 1 and ts = Time_ns.sec 5 in
  let op seq = { Op.client = 3; seq; key = 1; value = 0L } in
  Replica.handle r ~src:0 (Message.Dfp_propose { ts; op = op 1_000_000 });
  Engine.run ~until:(Time_ns.ms 20) engine;
  Replica.handle r ~src:0 (Message.Dfp_p2a { ts; value = Some (op 1_000_001) });
  let accepted records =
    Domino.recover blank 1 records;
    List.assoc "dfp_accepted" (Domino.recovery_state blank 1)
  in
  let store = stores.(1) in
  let want = accepted (durable_records store) in
  check_bool "the round-0 accept synced" true (List.mem ts want);
  check_bool "the snapshot keeps it" true
    (accepted (Replica.snapshot r ~upto:(Store.durable_upto store)) = want)

(* The config and the group env must agree on the replica set: a
   mismatch is refused before any network is built. *)
let test_create_rejects_foreign_replicas () =
  let engine = Engine.create ~seed:1L () in
  let make_net ~classify:_ ~op_of:_ =
    Topology.make_net engine Topology.globe ~placement:[| "WA"; "PR"; "NSW" |]
  in
  let env =
    Durable.standalone engine ~replicas:[| 0; 1; 2 |] ~observer:Observer.null
      { Durable.make = make_net }
  in
  Alcotest.check_raises "cfg.replicas differs from env.replicas"
    (Invalid_argument "Domino.create: cfg.replicas differs from env.replicas")
    (fun () -> ignore (Domino.create env (Config.make ~replicas:[| 0; 1 |] ())))

let () =
  Alcotest.run "domino"
    [
      ( "feedback",
        [
          Alcotest.test_case "raises extra" `Quick test_feedback_raises_extra_on_slow;
          Alcotest.test_case "decays" `Quick test_feedback_decays_when_healthy;
          Alcotest.test_case "bounded" `Quick test_feedback_bounded;
          Alcotest.test_case "needs data" `Quick test_feedback_needs_data;
        ] );
      ( "coordinator",
        [
          Alcotest.test_case "fast path" `Quick test_coord_fast_path;
          Alcotest.test_case "slow path recovers op" `Quick
            test_coord_slow_path_recovers_op;
          Alcotest.test_case "noop wins when late" `Quick
            test_coord_noop_wins_when_op_too_late;
          Alcotest.test_case "noop fast commit" `Quick
            test_coord_noop_fast_commit_when_all_expired;
          Alcotest.test_case "bulk noop watermark" `Quick test_coord_bulk_noop_watermark;
          Alcotest.test_case "q-th watermark" `Quick test_coord_watermark_uses_qth;
          Alcotest.test_case "undecided blocks watermark" `Quick
            test_coord_undecided_position_blocks_watermark;
          Alcotest.test_case "late vote rescued" `Quick test_coord_late_vote_is_rescued;
          Alcotest.test_case "collision of two ops" `Quick test_coord_collision_two_ops;
          Alcotest.test_case "duplicate votes" `Quick test_coord_duplicate_votes_ignored;
        ] );
      ( "end-to-end",
        [
          Alcotest.test_case "liveness+convergence+safety" `Slow
            test_e2e_liveness_convergence_safety;
          Alcotest.test_case "fast path dominates" `Slow test_e2e_fast_path_dominates;
          Alcotest.test_case "clients split DFP/DM" `Slow test_e2e_clients_split_dfp_dm;
          Alcotest.test_case "additional delay" `Slow
            test_e2e_additional_delay_reduces_slow_paths;
          Alcotest.test_case "beats baselines (Globe)" `Slow
            test_e2e_domino_beats_baselines_globe;
          Alcotest.test_case "replica crash -> DM" `Slow test_e2e_replica_crash_steers_to_dm;
          Alcotest.test_case "clock skew tolerated" `Slow test_e2e_clock_skew_tolerated;
          Alcotest.test_case "learner mode" `Slow test_e2e_every_replica_learns_not_slower;
          Alcotest.test_case "adaptive controller" `Slow test_e2e_adaptive_run;
          Alcotest.test_case "static slow-path baseline" `Slow
            test_e2e_adaptive_controller_improves_tail;
          Alcotest.test_case "storage compression" `Slow test_e2e_storage_compression;
          Alcotest.test_case "create rejects foreign replicas" `Quick
            test_create_rejects_foreign_replicas;
        ] );
      ( "snapshots",
        [
          Alcotest.test_case "WAL bounded over 30 s" `Slow test_wal_bounded;
          Alcotest.test_case "snapshot replays like the log" `Slow
            test_snapshot_replays_like_log;
          Alcotest.test_case "snapshot keeps an overwritten accept" `Quick
            test_snapshot_keeps_overwritten_accept;
        ] );
    ]
