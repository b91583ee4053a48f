(* Tests for the fault-injection subsystem (lib/fault): the plan DSL,
   plan compilation onto a network, the harness-side retry wrapper and
   server-side dedup, and the post-run safety checker — including the
   negative test proving the checker catches double execution when
   dedup is deliberately disabled. *)

open Domino_sim
open Domino_net
open Domino_smr
open Domino_obs
open Domino_fault
open Domino_exp

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

let contains s frag =
  let ls = String.length s and lf = String.length frag in
  let rec go i = i + lf <= ls && (String.sub s i lf = frag || go (i + 1)) in
  go 0

let parse_exn text =
  match Plan.parse text with
  | Ok plan -> plan
  | Error e -> Alcotest.failf "plan parse failed: %s" e

(* --- Plan DSL --- *)

let test_plan_parse () =
  let plan =
    parse_exn
      {|# comment, then a blank line

at 2s crash node=0
at 2800ms recover node=0
at 2900ms wipe node=1
at 3s partition a=0 b=1,2 sym until=5s
at 3s degrade src=0 dst=1 delay=40ms loss=0.3 until=4s
at 6s skew node=3 delta=-30ms
|}
  in
  check_int "events" 6 (List.length plan);
  (match plan with
  | { Plan.at; action = Plan.Crash { node } } :: _ ->
    check_int "crash at" (Time_ns.sec 2) at;
    check_int "crash node" 0 node
  | _ -> Alcotest.fail "first event should be the crash");
  (match List.nth plan 2 with
  | { Plan.at; action = Plan.Wipe { node } } ->
    check_int "wipe at" (Time_ns.ms 2900) at;
    check_int "wipe node" 1 node
  | _ -> Alcotest.fail "third event should be the wipe");
  match List.rev plan with
  | { Plan.action = Plan.Skew { node; delta }; _ } :: _ ->
    check_int "skew node" 3 node;
    check_int "skew delta" (-Time_ns.ms 30) delta
  | _ -> Alcotest.fail "last event should be the skew"

let test_plan_roundtrip () =
  let text =
    "at 1500ms crash node=2\n\
     at 2500ms recover node=2\n\
     at 2s partition a=1 b=0,2 sym until=4s\n\
     at 2600ms wipe node=2\n\
     at 3s degrade src=4 dst=1 delay=30ms loss=0.25 until=4500ms\n\
     at 3500ms skew node=3 delta=25ms\n\
     at 4s migrate slot=1 from=0 to=1\n\
     at 4200ms transfer group=0 to=1\n\
     at 4400ms reconfig group=0 add=3\n\
     at 4600ms reconfig group=1 remove=2\n\
     at 4800ms reconfig group=0 replace=1 with=4\n\
     at 5s roll group=0 dwell=500ms\n"
  in
  let plan = parse_exn text in
  let printed = Plan.to_string plan in
  let reparsed = parse_exn printed in
  check_bool "to_string round-trips through parse" true (plan = reparsed);
  check_bool "second print is a fixpoint" true
    (String.equal printed (Plan.to_string reparsed))

let test_plan_control_parse () =
  let plan =
    parse_exn
      "at 2s transfer group=0 to=1\n\
       at 2500ms reconfig group=0 replace=1 with=4\n\
       at 3s roll group=2 dwell=750ms\n"
  in
  (match plan with
  | { Plan.at; action = Plan.Transfer { group; to_ } } :: _ ->
    check_int "transfer at" (Time_ns.sec 2) at;
    check_int "transfer group" 0 group;
    check_int "transfer to" 1 to_
  | _ -> Alcotest.fail "first event should be the transfer");
  (match List.nth plan 1 with
  | {
      Plan.action =
        Plan.Reconfig { group = 0; change = Plan.Replace { node = 1; with_ = 4 } };
      _;
    } -> ()
  | _ -> Alcotest.fail "second event should be the replace");
  match List.rev plan with
  | { Plan.action = Plan.Roll { group; dwell }; _ } :: _ ->
    check_int "roll group" 2 group;
    check_int "roll dwell" (Time_ns.ms 750) dwell
  | _ -> Alcotest.fail "last event should be the roll"

(* Random control-verb plans: each case is a list of
   (at, verb, (x, y)) triples compiled to plan text — integers only,
   so QCheck's built-in shrinkers apply and every shrink candidate is
   still a well-formed plan by construction. *)
let control_plan_text case =
  let line (at_hms, verb, (x, y)) =
    let at = 100 * (1 + at_hms) in
    let g = x mod 3 and r = y mod 3 in
    match verb mod 4 with
    | 0 -> Printf.sprintf "at %dms transfer group=%d to=%d" at g r
    | 1 ->
      Printf.sprintf "at %dms reconfig group=%d %s=%d" at g
        (if y mod 2 = 0 then "add" else "remove")
        r
    | 2 ->
      Printf.sprintf "at %dms reconfig group=%d replace=%d with=%d" at g r
        ((r + 1) mod 3)
    | _ -> Printf.sprintf "at %dms roll group=%d dwell=%dms" at g (50 * (1 + r))
  in
  String.concat "\n" (List.map line case) ^ "\n"

let control_case =
  QCheck.(
    set_print control_plan_text
      (small_list (triple (int_bound 50) (int_bound 3) (pair small_nat small_nat))))

let control_roundtrip_property =
  QCheck.Test.make ~name:"control plans round-trip through to_string" ~count:50
    control_case (fun case ->
      let text = control_plan_text case in
      let plan = parse_exn text in
      let printed = Plan.to_string plan in
      parse_exn printed = plan
      && String.equal printed (Plan.to_string (parse_exn printed))
      && match Plan.validate ~n:5 plan with Ok () -> true | Error _ -> false)

let test_control_shrink_runnable () =
  (* Shrink-to-runnable regression: when the chaos property fails, the
     counterexample QCheck prints must itself be a parseable, valid
     plan — otherwise the shrunk repro can't be re-run. Walk every
     shrink candidate of a representative failing case and re-validate
     its plan. *)
  let case = [ (20, 0, (1, 2)); (30, 2, (0, 1)); (45, 3, (2, 0)) ] in
  let candidates = ref [] in
  (match control_case.QCheck.shrink with
  | Some shrink -> shrink case (fun c -> candidates := c :: !candidates)
  | None -> Alcotest.fail "control case must shrink");
  check_bool "shrinker produced candidates" true (!candidates <> []);
  List.iter
    (fun c ->
      let text = control_plan_text c in
      let plan = parse_exn text in
      match Plan.validate ~n:5 plan with
      | Ok () -> ()
      | Error e -> Alcotest.failf "shrunk plan not runnable (%s):\n%s" e text)
    !candidates

let test_plan_parse_errors () =
  let expect_error text frag =
    match Plan.parse text with
    | Ok _ -> Alcotest.failf "expected a parse error for %S" text
    | Error e ->
      check_bool
        (Printf.sprintf "error %S mentions %S" e frag)
        true (contains e frag)
  in
  expect_error "at 2s explode node=0" "line 1";
  expect_error "at 1s crash node=0\nat 2s crash" "line 2";
  expect_error "at 2s crash node=zero" "bad integer"

let test_plan_validate () =
  let ok plan = Plan.validate ~n:5 (parse_exn plan) in
  (match ok "at 1s crash node=4\nat 2s recover node=4\n" with
  | Ok () -> ()
  | Error e -> Alcotest.failf "valid plan rejected: %s" e);
  let rejected plan =
    match ok plan with
    | Ok () -> Alcotest.failf "invalid plan accepted: %s" plan
    | Error _ -> ()
  in
  rejected "at 1s crash node=5\n";
  rejected "at 3s partition a=0 b=1 until=2s\n";
  rejected "at 1s degrade src=0 dst=1 delay=1ms loss=1.5 until=2s\n"

let test_shipped_plans_parse () =
  (* Every plan under test/plans/ must parse, validate against the
     fig7-double layout (5 nodes), and round-trip. *)
  let dir = "plans" in
  let files =
    Sys.readdir dir |> Array.to_list
    |> List.filter (fun f -> Filename.check_suffix f ".plan")
    |> List.sort String.compare
  in
  check_bool "found shipped plans" true (List.length files >= 6);
  List.iter
    (fun f ->
      let ic = open_in_bin (Filename.concat dir f) in
      let text = really_input_string ic (in_channel_length ic) in
      close_in ic;
      let plan = parse_exn text in
      (match Plan.validate ~n:5 plan with
      | Ok () -> ()
      | Error e -> Alcotest.failf "%s invalid: %s" f e);
      check_bool
        (Printf.sprintf "%s round-trips" f)
        true
        (parse_exn (Plan.to_string plan) = plan))
    files

(* --- Inject: plans drive the network's fault hooks --- *)

let mk_net ~n () =
  let engine = Engine.create ~seed:11L () in
  let net = Fifo_net.create engine ~n in
  let rng = Rng.create 11L in
  for src = 0 to n - 1 do
    for dst = 0 to n - 1 do
      if src <> dst then
        Fifo_net.set_link net ~src ~dst
          (Link.create ~base_owd:(Time_ns.ms 5) rng)
    done
  done;
  (engine, net)

let fault_names journal =
  let names = ref [] in
  Journal.iter journal (fun ev ->
      match ev with
      | Journal.Fault { name; _ } ->
        if not (List.mem name !names) then names := name :: !names
      | _ -> ());
  List.rev !names

let test_inject_crash_window () =
  let engine, net = mk_net ~n:2 () in
  let journal = Journal.create () in
  let plan = parse_exn "at 100ms crash node=1\nat 200ms recover node=1\n" in
  Inject.install plan ~net ~journal:(Journal.sink journal);
  let got = ref 0 in
  Fifo_net.set_handler net 1 (fun ~src:_ _ -> incr got);
  (* One message lands inside the crash window, one after recovery. *)
  Engine.schedule_at engine ~at:(Time_ns.ms 120) (fun () ->
      Fifo_net.send net ~src:0 ~dst:1 "during");
  Engine.schedule_at engine ~at:(Time_ns.ms 250) (fun () ->
      Fifo_net.send net ~src:0 ~dst:1 "after");
  Engine.run engine;
  check_int "only the post-recovery message delivered" 1 !got;
  let names = fault_names journal in
  List.iter
    (fun n -> check_bool ("journaled " ^ n) true (List.mem n names))
    [ "crash"; "recover"; "drop" ]

let test_inject_partition_heals_fifo () =
  let engine, net = mk_net ~n:2 () in
  let journal = Journal.create () in
  let plan = parse_exn "at 50ms partition a=0 b=1 sym until=300ms\n" in
  Inject.install plan ~net ~journal:(Journal.sink journal);
  let got = ref [] in
  Fifo_net.set_handler net 1 (fun ~src:_ msg ->
      got := (msg, Engine.now engine) :: !got);
  Engine.schedule_at engine ~at:(Time_ns.ms 100) (fun () ->
      Fifo_net.send net ~src:0 ~dst:1 "first";
      Fifo_net.send net ~src:0 ~dst:1 "second");
  Engine.run engine;
  (match List.rev !got with
  | [ ("first", t1); ("second", t2) ] ->
    (* Stalled, not lost: both deliver at the heal, in send order. *)
    check_bool "held until heal" true (t1 >= Time_ns.ms 300);
    check_bool "FIFO across the heal" true (t2 >= t1)
  | _ -> Alcotest.fail "expected both messages after the heal");
  let names = fault_names journal in
  List.iter
    (fun n -> check_bool ("journaled " ^ n) true (List.mem n names))
    [ "partition"; "heal" ]

let test_inject_rejects_invalid () =
  let _, net = mk_net ~n:2 () in
  let plan = parse_exn "at 1s crash node=7\n" in
  check_bool "invalid plan raises" true
    (try
       Inject.install plan ~net ~journal:Journal.null;
       false
     with Invalid_argument _ -> true)

(* --- Retry: timer-driven backoff, disarm, abandon --- *)

let op ~client ~seq = Op.make ~client ~seq ~key:1 ~value:42L

let test_retry_backoff_schedule () =
  let engine = Engine.create ~seed:3L () in
  let policy =
    { Retry.timeout = Time_ns.ms 100; factor = 2.; max_attempts = 4 }
  in
  let r = Retry.create ~policy engine in
  let sent = ref [] in
  Retry.set_submit r (fun _op -> sent := Engine.now engine :: !sent);
  Retry.submit r (op ~client:9 ~seq:0);
  Engine.run ~until:(Time_ns.sec 2) engine;
  (* Initial send at 0, then retries at +100, +300, +700 ms. *)
  let times = List.rev !sent in
  Alcotest.(check (list int))
    "submit instants follow the exponential schedule"
    [ 0; Time_ns.ms 100; Time_ns.ms 300; Time_ns.ms 700 ]
    times;
  check_int "retries counted" 3 (Retry.retries r);
  check_int "abandoned after max attempts" 1 (Retry.abandoned r);
  check_int "nothing left inflight" 0 (Retry.inflight r)

let test_retry_commit_disarms () =
  let engine = Engine.create ~seed:3L () in
  let policy =
    { Retry.timeout = Time_ns.ms 100; factor = 2.; max_attempts = 4 }
  in
  let r = Retry.create ~policy engine in
  let sent = ref 0 in
  Retry.set_submit r (fun _ -> incr sent);
  let o = op ~client:9 ~seq:1 in
  Retry.submit r o;
  Engine.schedule_at engine ~at:(Time_ns.ms 50) (fun () -> Retry.on_commit r o);
  Engine.run ~until:(Time_ns.sec 1) engine;
  check_int "no retry after commit" 1 !sent;
  check_int "no retries counted" 0 (Retry.retries r);
  check_int "not abandoned" 0 (Retry.abandoned r)

let test_retry_submit_idempotent () =
  let engine = Engine.create ~seed:3L () in
  let r = Retry.create engine in
  let sent = ref 0 in
  Retry.set_submit r (fun _ -> incr sent);
  let o = op ~client:9 ~seq:2 in
  Retry.submit r o;
  Retry.submit r o;
  (* Each submit forwards (a deliberate re-offer), but the retry timer
     does not stack: one pending entry, one backoff schedule. *)
  check_int "both submits forwarded" 2 !sent;
  check_int "one inflight" 1 (Retry.inflight r)

(* --- Service.Dedup --- *)

let test_dedup () =
  let d = Service.Dedup.create () in
  let o = op ~client:9 ~seq:3 in
  check_bool "first is fresh" true (Service.Dedup.fresh d o);
  check_bool "second is not" false (Service.Dedup.fresh d o);
  check_int "duplicate counted" 1 (Service.Dedup.duplicates d);
  let off = Service.Dedup.create ~enabled:false () in
  check_bool "disabled: everything fresh" true
    (Service.Dedup.fresh off o && Service.Dedup.fresh off o)

(* --- Checker on synthetic journals --- *)

let record_all journal events = List.iter (Journal.record journal) events

let submit ~op ~at = Journal.Submit { op; node = 9; key = 1; at }
let commit ~op ~at = Journal.Commit { op; node = 9; at }
let execute ~op ~replica ~at = Journal.Execute { op; replica; at }

let test_checker_clean () =
  let j = Journal.create () in
  let a = (9, 0) and b = (9, 1) in
  record_all j
    [
      submit ~op:a ~at:0;
      commit ~op:a ~at:Time_ns.(ms 10);
      execute ~op:a ~replica:0 ~at:(Time_ns.ms 20);
      execute ~op:a ~replica:1 ~at:(Time_ns.ms 25);
      submit ~op:b ~at:(Time_ns.ms 30);
      commit ~op:b ~at:(Time_ns.ms 40);
      execute ~op:b ~replica:0 ~at:(Time_ns.ms 50);
      execute ~op:b ~replica:1 ~at:(Time_ns.ms 55);
    ];
  let r = Checker.check ~require_complete:true j in
  check_bool "clean history passes" true r.Checker.ok;
  check_int "submitted" 2 r.Checker.submitted;
  check_int "committed" 2 r.Checker.committed;
  check_int "executed" 4 r.Checker.executed;
  check_int "no duplicates" 0 r.Checker.duplicate_execs

let test_checker_duplicate_exec () =
  let j = Journal.create () in
  let a = (9, 0) in
  record_all j
    [
      submit ~op:a ~at:0;
      commit ~op:a ~at:(Time_ns.ms 10);
      execute ~op:a ~replica:0 ~at:(Time_ns.ms 20);
      execute ~op:a ~replica:0 ~at:(Time_ns.ms 30);
    ];
  let r = Checker.check j in
  check_bool "double execution fails" false r.Checker.ok;
  check_int "duplicate counted" 1 r.Checker.duplicate_execs

let test_checker_order_divergence () =
  let j = Journal.create () in
  let a = (9, 0) and b = (9, 1) in
  record_all j
    [
      submit ~op:a ~at:0;
      submit ~op:b ~at:0;
      commit ~op:a ~at:(Time_ns.ms 10);
      commit ~op:b ~at:(Time_ns.ms 10);
      (* Replica 0 runs a then b; replica 1 runs b then a. *)
      execute ~op:a ~replica:0 ~at:(Time_ns.ms 20);
      execute ~op:b ~replica:0 ~at:(Time_ns.ms 21);
      execute ~op:b ~replica:1 ~at:(Time_ns.ms 20);
      execute ~op:a ~replica:1 ~at:(Time_ns.ms 21);
    ];
  let r = Checker.check j in
  check_bool "diverging execution order fails" false r.Checker.ok;
  check_bool "violation names the divergence" true
    (List.exists (fun v -> contains v "diverges") r.Checker.violations)

let test_checker_committed_never_executed () =
  let j = Journal.create () in
  let a = (9, 0) and b = (9, 1) and c = (9, 2) and d = (9, 3) in
  record_all j
    [
      submit ~op:a ~at:0;
      commit ~op:a ~at:(Time_ns.ms 10);
      (* d runs at all three replicas; c at replica 2 only, which is
         "executed somewhere" and must not be flagged. *)
      submit ~op:d ~at:(Time_ns.ms 50);
      commit ~op:d ~at:(Time_ns.ms 60);
      execute ~op:d ~replica:0 ~at:(Time_ns.ms 70);
      execute ~op:d ~replica:1 ~at:(Time_ns.ms 70);
      execute ~op:d ~replica:2 ~at:(Time_ns.ms 70);
      submit ~op:c ~at:(Time_ns.ms 100);
      commit ~op:c ~at:(Time_ns.ms 110);
      execute ~op:c ~replica:2 ~at:(Time_ns.ms 120);
      (* Journal runs on well past the tail slack with no execution. *)
      submit ~op:b ~at:(Time_ns.sec 2);
      commit ~op:b ~at:(Time_ns.sec 2);
      execute ~op:b ~replica:2 ~at:(Time_ns.sec 2);
    ];
  let r = Checker.check j in
  check_bool "lost committed op fails" false r.Checker.ok;
  Alcotest.(check (list string))
    "only the never-executed op is flagged"
    [ "op 9#0 committed @10000000 but never executed" ]
    r.Checker.violations

let test_checker_real_time_order () =
  let j = Journal.create () in
  let a = (9, 0) and b = (9, 1) in
  record_all j
    [
      submit ~op:a ~at:0;
      commit ~op:a ~at:(Time_ns.ms 10);
      (* b enters the system only after a committed, yet executes
         before it: a real-time (linearizability) violation. *)
      submit ~op:b ~at:(Time_ns.ms 100);
      commit ~op:b ~at:(Time_ns.ms 110);
      execute ~op:b ~replica:0 ~at:(Time_ns.ms 120);
      execute ~op:a ~replica:0 ~at:(Time_ns.ms 121);
    ];
  let r = Checker.check j in
  check_bool "real-time inversion fails" false r.Checker.ok

let test_checker_require_complete () =
  let j = Journal.create () in
  let a = (9, 0) in
  record_all j [ submit ~op:a ~at:0 ];
  let lax = Checker.check j in
  check_bool "uncommitted op tolerated by default" true lax.Checker.ok;
  let strict = Checker.check ~require_complete:true j in
  check_bool "require_complete demands every commit" false strict.Checker.ok

let test_checker_ring_overflow_unsound () =
  let j = Journal.create ~capacity:4 () in
  let a = (9, 0) in
  record_all j
    [
      submit ~op:a ~at:0;
      commit ~op:a ~at:(Time_ns.ms 10);
      execute ~op:a ~replica:0 ~at:(Time_ns.ms 20);
      execute ~op:a ~replica:1 ~at:(Time_ns.ms 21);
      execute ~op:a ~replica:2 ~at:(Time_ns.ms 22);
    ];
  let r = Checker.check j in
  check_bool "overflowed journal is reported unsound" false r.Checker.ok

(* --- Integration: short faulted runs through the harness --- *)

let run_checked ?(dedup = true) ?(duration = Time_ns.sec 4) ?store ~plan proto
    =
  let faults = parse_exn plan in
  let journal = Journal.create () in
  let result =
    Exp_common.run ~seed:5L ~rate:50. ~duration
      ~measure_from:(Time_ns.ms 500) ~measure_until:duration ~journal ~faults
      ~dedup ?store Exp_common.fig7_double proto
  in
  (result, journal, Checker.check ~require_complete:true journal)

let test_domino_retry_failover () =
  (* Coordinator (replica 0) dies mid-run and comes back: Domino's
     in-protocol client retry must failover to DM and land every op. *)
  let result, _, report =
    run_checked ~plan:"at 1s crash node=0\nat 2s recover node=0\n"
      Exp_common.domino_default
  in
  check_bool "checker passes under coordinator crash" true report.Checker.ok;
  check_bool "clients actually retried" true
    (List.assoc "client_retries" result.Exp_common.extra > 0)

let test_harness_retry_under_partition () =
  (* The IA client is cut off from the Multi-Paxos leader for longer
     than the retry timeout: the harness wrapper must re-submit, and
     dedup must keep execution exactly-once. *)
  let plan = "at 1s partition a=3 b=0 sym until=2200ms\n" in
  let result, _, report = run_checked ~plan Exp_common.Multi_paxos in
  check_bool "checker passes with dedup on" true report.Checker.ok;
  check_bool "harness retried" true
    (List.assoc "harness_retries" result.Exp_common.extra > 0);
  check_int "no duplicate executions" 0 report.Checker.duplicate_execs

let test_dedup_mutant_caught () =
  (* Same faulted run with server dedup disabled: the deliberate
     duplicates from client retries now reach the state machines, and
     the checker must catch them. *)
  let plan = "at 1s partition a=3 b=0 sym until=2200ms\n" in
  let _, _, report = run_checked ~dedup:false ~plan Exp_common.Multi_paxos in
  check_bool "mutant fails the checker" false report.Checker.ok;
  check_bool "double execution detected" true
    (report.Checker.duplicate_execs > 0)

(* --- Crash-with-amnesia through the harness --- *)

let wipe_plan = "at 1s crash node=2\nat 1800ms wipe node=2\n"

let test_wipe_recovery_clean () =
  (* A wiped follower restarts from its WAL and rejoins: the run stays
     exactly-once and complete, the journal carries the recovery
     events, and the harness surfaces the storage work. *)
  List.iter
    (fun proto ->
      let result, _, report = run_checked ~plan:wipe_plan proto in
      check_bool
        (Exp_common.protocol_name proto ^ " checker passes across a wipe")
        true report.Checker.ok;
      check_bool
        (Exp_common.protocol_name proto ^ " recovery observed")
        true
        (report.Checker.recoveries > 0);
      check_bool
        (Exp_common.protocol_name proto ^ " fsyncs happened")
        true
        (result.Exp_common.sync_writes > 0);
      check_bool
        (Exp_common.protocol_name proto ^ " recovery span measured")
        true
        (result.Exp_common.recovery_ms <> []))
    [
      Exp_common.domino_default;
      Exp_common.Mencius;
      Exp_common.Epaxos;
      Exp_common.Multi_paxos;
      Exp_common.Fast_paxos;
    ]

let test_durability_mutant_caught () =
  (* Same wipe with [durable = false] stores — the disk acknowledged
     fsyncs it never kept, so the node restarts fully amnesiac (zero
     records to replay). Run against node 0, whose amnesia is most
     corrupting: the Multi-Paxos leader re-decides already-executed
     slots and the DFP coordinator forgets its decided watermark, so
     the checker must flag the run (mirroring PR 4's dedup mutant).
     The other three protocols can evade this particular plan: the
     blank node fast-forwards its execution cursor to the peers'
     watermarks and resumes with only new ops, which the journal
     checker cannot distinguish from a slow-but-correct replica — the
     damage is confined to that replica's unobserved KV state. *)
  let store =
    { Domino_store.Store.default_params with Domino_store.Store.durable = false }
  in
  let plan = "at 1s crash node=0\nat 1800ms wipe node=0\n" in
  List.iter
    (fun proto ->
      let _, _, report = run_checked ~store ~plan proto in
      check_bool
        (Exp_common.protocol_name proto ^ ": skip-fsync mutant caught")
        false report.Checker.ok)
    [ Exp_common.domino_default; Exp_common.Multi_paxos ]

let test_probe_silence_steers_dm () =
  (* §5.8 regression: while replica 1 is crashed its probe replies stop,
     so once the estimator's 1 s probe timeout has passed, every Domino
     client must stop choosing DFP (which needs all n replicas fresh)
     and route via DM; after recovery the probes refresh and DFP
     resumes. Windows leave 100 ms of slack around the transitions. *)
  let _, journal, report =
    run_checked ~duration:(Time_ns.sec 6)
      ~plan:"at 2s crash node=1\nat 4s recover node=1\n"
      Exp_common.domino_default
  in
  check_bool "checker passes" true report.Checker.ok;
  let count name ~from ~upto =
    let c = ref 0 in
    Journal.iter journal (fun ev ->
        match ev with
        | Journal.Phase { name = n; at; _ } ->
          if String.equal n name && at >= from && at < upto then incr c
        | _ -> ());
    !c
  in
  let before_dfp = count "route_dfp" ~from:0 ~upto:(Time_ns.sec 2) in
  let before_dm = count "route_dm" ~from:0 ~upto:(Time_ns.sec 2) in
  check_bool "DFP dominates while all replicas answer probes" true
    (before_dfp > before_dm);
  (* [2s, 3.1s) is the limbo where pre-crash probe replies are still
     within the timeout; after that the crashed replica is stale. *)
  check_int "no DFP routing while probes are silent" 0
    (count "route_dfp" ~from:(Time_ns.ms 3100) ~upto:(Time_ns.sec 4));
  check_bool "clients kept submitting via DM" true
    (count "route_dm" ~from:(Time_ns.ms 3100) ~upto:(Time_ns.sec 4) > 0);
  check_bool "DFP resumes after recovery" true
    (count "route_dfp" ~from:(Time_ns.ms 4500) ~upto:(Time_ns.sec 6) > 0)

(* --- Orchestrated maintenance: transfer, reconfig, roll under load --- *)

let count_reconfig journal ~stage =
  let c = ref 0 in
  Journal.iter journal (fun ev ->
      match ev with
      | Journal.Reconfig { stage = s; _ } when String.equal s stage -> incr c
      | _ -> ());
  !c

let test_leader_transfer_under_load () =
  (* A graceful handoff is not a fault: no crash, no wipe, and every
     in-flight and parked op still commits and executes. *)
  List.iter
    (fun proto ->
      let name = Exp_common.protocol_name proto in
      let _, journal, report =
        run_checked ~duration:(Time_ns.sec 5)
          ~plan:"at 1500ms transfer group=0 to=1\n" proto
      in
      if not report.Checker.ok then
        Alcotest.failf "%s transfer violates:@.%a" name Checker.pp_report report;
      check_int (name ^ ": transfer completed") 1
        (count_reconfig journal ~stage:"transfer_done"))
    [ Exp_common.domino_default; Exp_common.Multi_paxos; Exp_common.Mencius ]

let test_roll_under_load () =
  (* The tentpole end-to-end: a full rolling wipe-upgrade of the 3-node
     group under load — every node in turn is drained of leadership,
     wiped, recovered, and readmitted — with zero lost ops
     ([run_checked] passes [require_complete]). *)
  List.iter
    (fun proto ->
      let name = Exp_common.protocol_name proto in
      let _, journal, report =
        run_checked ~duration:(Time_ns.sec 7)
          ~plan:"at 1500ms roll group=0 dwell=300ms\n" proto
      in
      if not report.Checker.ok then
        Alcotest.failf "%s roll violates:@.%a" name Checker.pp_report report;
      check_int (name ^ ": all three nodes rolled") 3
        (count_reconfig journal ~stage:"roll_node");
      check_int (name ^ ": roll completed") 1
        (count_reconfig journal ~stage:"roll_done");
      check_bool (name ^ ": every wipe recovered") true
        (report.Checker.recoveries >= 3))
    [ Exp_common.domino_default; Exp_common.Multi_paxos ]

let test_reconfig_under_load () =
  (* Retire replica 2, then readmit it: two epoch bumps, each a
     stop-the-world drain, with no op lost across either boundary. *)
  List.iter
    (fun proto ->
      let name = Exp_common.protocol_name proto in
      let _, journal, report =
        run_checked ~duration:(Time_ns.sec 6)
          ~plan:
            "at 1500ms reconfig group=0 remove=2\n\
             at 3500ms reconfig group=0 add=2\n"
          proto
      in
      if not report.Checker.ok then
        Alcotest.failf "%s reconfig violates:@.%a" name Checker.pp_report
          report;
      check_int (name ^ ": two epoch bumps") 2 report.Checker.reconfigs;
      check_int (name ^ ": both changes finished") 2
        (count_reconfig journal ~stage:"done"))
    [ Exp_common.domino_default; Exp_common.Multi_paxos ]

let test_stale_config_mutant_caught () =
  (* The deliberately-broken build: a removed replica keeps its network
     endpoints and goes on executing. The checker's removed-node rule
     must flag the run. *)
  List.iter
    (fun proto ->
      let name = Exp_common.protocol_name proto in
      let faults = parse_exn "at 1500ms reconfig group=0 remove=2\n" in
      let journal = Journal.create () in
      ignore
        (Exp_common.run ~seed:5L ~rate:50. ~duration:(Time_ns.sec 5) ~journal
           ~faults ~reconfig_mutant:true Exp_common.fig7_double proto);
      let report = Checker.check journal in
      check_bool (name ^ ": stale-config mutant caught") false report.Checker.ok;
      check_bool (name ^ ": violation names the removed replica") true
        (List.exists
           (fun v -> contains v "removed replica 2")
           report.Checker.violations))
    [ Exp_common.domino_default; Exp_common.Multi_paxos ]

let test_roll_sweep_deterministic () =
  (* The determinism contract extended to rolls: a parallel sweep whose
     every run performs a rolling patch must merge to byte-identical
     journals at any --jobs. *)
  let faults = parse_exn "at 1500ms roll group=0 dwell=300ms\n" in
  let sweep jobs =
    let journal = Journal.create () in
    let cells =
      List.map
        (fun p -> (Exp_common.fig7_double, p))
        [ Exp_common.domino_default; Exp_common.Multi_paxos ]
    in
    ignore
      (Exp_common.run_sweep ~seed:7L ~rate:100. ~duration:(Time_ns.sec 5)
         ~jobs ~journal ~faults cells);
    Journal.to_lines journal
  in
  let j1 = sweep 1 and j4 = sweep 4 in
  check_bool "sweep journals rolls" true (contains j1 "reconfig.roll_done");
  check_bool "roll sweep journal byte-identical at jobs 1 vs 4" true
    (String.equal j1 j4)

(* --- QCheck: random minority-fault plans never break any protocol --- *)

let plan_of_case ((node, (crash_ms, down_ms), extra), wipe) =
  let b =
    match node with 0 -> "1,2" | 1 -> "0,2" | _ -> "0,1"
  in
  let lines =
    [ Printf.sprintf "at %dms crash node=%d" crash_ms node ]
    @ (if wipe then
         (* Crash-with-amnesia: the wipe restarts the node by itself
            (after its modeled recovery span), no recover event. *)
         [ Printf.sprintf "at %dms wipe node=%d" (crash_ms + down_ms) node ]
       else
         [ Printf.sprintf "at %dms recover node=%d" (crash_ms + down_ms) node ])
    @
    match extra with
    | 0 -> []
    | 1 ->
      (* Overlapping symmetric partition of the same (minority) node. *)
      [
        Printf.sprintf "at %dms partition a=%d b=%s sym until=3200ms" crash_ms
          node b;
      ]
    | _ ->
      [
        Printf.sprintf
          "at %dms degrade src=3 dst=%d delay=20ms loss=0.2 until=3s" crash_ms
          node;
      ]
  in
  String.concat "\n" lines ^ "\n"

let chaos_property =
  let case =
    QCheck.(
      pair
        (triple (int_bound 2)
           (pair (int_range 800 1800) (int_range 200 800))
           (int_bound 2))
        bool)
  in
  let arb =
    QCheck.set_print (fun c -> "plan:\n" ^ plan_of_case c) case
  in
  QCheck.Test.make ~name:"minority faults: all protocols stay safe and live"
    ~count:4 arb (fun c ->
      let plan = plan_of_case c in
      List.for_all
        (fun proto ->
          let _, _, report = run_checked ~plan proto in
          if not report.Checker.ok then
            QCheck.Test.fail_reportf
              "%s failed the checker under@.%s@.%a"
              (Exp_common.protocol_name proto)
              plan Checker.pp_report report
          else true)
        [
          Exp_common.domino_default;
          Exp_common.Mencius;
          Exp_common.Epaxos;
          Exp_common.Multi_paxos;
          Exp_common.Fast_paxos;
        ])

let () =
  let q = QCheck_alcotest.to_alcotest in
  Alcotest.run "fault"
    [
      ( "plan",
        [
          Alcotest.test_case "parse" `Quick test_plan_parse;
          Alcotest.test_case "roundtrip" `Quick test_plan_roundtrip;
          Alcotest.test_case "control verbs" `Quick test_plan_control_parse;
          q control_roundtrip_property;
          Alcotest.test_case "shrink stays runnable" `Quick
            test_control_shrink_runnable;
          Alcotest.test_case "parse errors" `Quick test_plan_parse_errors;
          Alcotest.test_case "validate" `Quick test_plan_validate;
          Alcotest.test_case "shipped plans" `Quick test_shipped_plans_parse;
        ] );
      ( "inject",
        [
          Alcotest.test_case "crash window" `Quick test_inject_crash_window;
          Alcotest.test_case "partition heals FIFO" `Quick
            test_inject_partition_heals_fifo;
          Alcotest.test_case "rejects invalid" `Quick test_inject_rejects_invalid;
        ] );
      ( "retry",
        [
          Alcotest.test_case "backoff schedule" `Quick
            test_retry_backoff_schedule;
          Alcotest.test_case "commit disarms" `Quick test_retry_commit_disarms;
          Alcotest.test_case "submit idempotent" `Quick
            test_retry_submit_idempotent;
          Alcotest.test_case "dedup" `Quick test_dedup;
        ] );
      ( "checker",
        [
          Alcotest.test_case "clean" `Quick test_checker_clean;
          Alcotest.test_case "duplicate exec" `Quick test_checker_duplicate_exec;
          Alcotest.test_case "order divergence" `Quick
            test_checker_order_divergence;
          Alcotest.test_case "committed never executed" `Quick
            test_checker_committed_never_executed;
          Alcotest.test_case "real-time order" `Quick test_checker_real_time_order;
          Alcotest.test_case "require_complete" `Quick
            test_checker_require_complete;
          Alcotest.test_case "ring overflow" `Quick
            test_checker_ring_overflow_unsound;
        ] );
      ( "faulted runs",
        [
          Alcotest.test_case "domino retry + failover" `Quick
            test_domino_retry_failover;
          Alcotest.test_case "harness retry under partition" `Quick
            test_harness_retry_under_partition;
          Alcotest.test_case "dedup mutant caught" `Quick
            test_dedup_mutant_caught;
          q chaos_property;
        ] );
      ( "maintenance",
        [
          Alcotest.test_case "leader transfer under load" `Quick
            test_leader_transfer_under_load;
          Alcotest.test_case "rolling patch under load" `Quick
            test_roll_under_load;
          Alcotest.test_case "membership change under load" `Quick
            test_reconfig_under_load;
          Alcotest.test_case "stale-config mutant caught" `Quick
            test_stale_config_mutant_caught;
          Alcotest.test_case "roll sweep deterministic across jobs" `Slow
            test_roll_sweep_deterministic;
        ] );
      ( "durability",
        [
          Alcotest.test_case "wipe recovery stays exactly-once" `Quick
            test_wipe_recovery_clean;
          Alcotest.test_case "skip-fsync mutant caught" `Quick
            test_durability_mutant_caught;
          Alcotest.test_case "probe silence steers DFP to DM" `Quick
            test_probe_silence_steers_dm;
        ] );
    ]
