(* Chaos regression suite (dune alias @chaos): every plan under
   test/plans/ crossed with all five protocols on the fig7-double
   layout, each run checked for exactly-once execution, per-key prefix
   agreement, write linearizability, and completeness — plus the
   determinism contract: a faulted parallel sweep's merged journal must
   be byte-identical for any --jobs value.

   On a failure the offending journal is written to
   chaos-<plan>-<protocol>.journal so CI can upload it as an artifact. *)

open Domino_sim
open Domino_obs
open Domino_fault
open Domino_exp

let duration = Time_ns.sec 6

let load_plan file =
  let ic = open_in_bin file in
  let text = really_input_string ic (in_channel_length ic) in
  close_in ic;
  match Plan.parse text with
  | Ok plan -> plan
  | Error e -> Alcotest.failf "%s: %s" file e

let plan_files =
  Sys.readdir "plans" |> Array.to_list
  |> List.filter (fun f -> Filename.check_suffix f ".plan")
  |> List.sort String.compare

let protocols =
  [
    Protocols.domino_default;
    Protocols.Mencius;
    Protocols.Epaxos;
    Protocols.Multi_paxos;
    Protocols.Fast_paxos;
  ]

let dump_journal ~plan_file ~proto journal =
  let out =
    Printf.sprintf "chaos-%s-%s.journal"
      (Filename.remove_extension plan_file)
      (Protocols.name proto)
  in
  let oc = open_out_bin out in
  output_string oc (Journal.to_lines journal);
  close_out oc;
  out

let check_cell plan_file proto () =
  let faults = load_plan (Filename.concat "plans" plan_file) in
  let journal = Journal.create () in
  let _ =
    Exp_common.run ~seed:7L ~rate:100. ~duration
      ~measure_from:(Time_ns.ms 500) ~measure_until:duration ~journal ~faults
      Exp_common.fig7_double proto
  in
  let report = Checker.check ~require_complete:true journal in
  if not report.Checker.ok then begin
    let saved = dump_journal ~plan_file ~proto journal in
    Alcotest.failf "%s x %s: %a@.journal saved to %s" plan_file
      (Protocols.name proto)
      Checker.pp_report report saved
  end;
  (* A fault plan must not stop the workload cold: a healthy faulted
     run of this length lands hundreds of ops. *)
  if report.Checker.committed < 100 then
    Alcotest.failf "%s x %s: only %d ops committed" plan_file
      (Protocols.name proto)
      report.Checker.committed

let test_journal_determinism plan_file () =
  (* A faulted sweep across every protocol, run twice with different
     parallelism: the merged journals must match byte for byte. Run for
     both a plain crash plan and a wipe-restart plan, so the storage
     and recovery event streams are covered by the contract too. *)
  let faults = load_plan (Filename.concat "plans" plan_file) in
  let sweep jobs =
    let journal = Journal.create () in
    let cells = List.map (fun p -> (Exp_common.fig7_double, p)) protocols in
    let _ =
      Exp_common.run_sweep ~seed:7L ~rate:100. ~duration ~jobs ~journal
        ~faults cells
    in
    Journal.to_lines journal
  in
  let j1 = sweep 1 and j4 = sweep 4 in
  Alcotest.(check bool)
    (Printf.sprintf
       "%s sweep journal byte-identical at jobs=1 and jobs=4" plan_file)
    true
    (String.equal j1 j4)

let test_recovery_deadline plan_file ~bound_ms proto () =
  (* Liveness with a clock on it: after every injected fault the
     cluster's windowed throughput must climb back to within 10% of its
     pre-fault baseline inside [bound_ms] of sim time. Bounds are tuned
     from measured TTRs at this seed (worst observed: 2.3 s for the
     repeated wipe under Domino, 2.0 s for the Mencius leader crash)
     and the runs are deterministic, so a regression that slows
     recovery — not just one that breaks safety — fails the suite. *)
  let faults = load_plan (Filename.concat "plans" plan_file) in
  let journal = Journal.create () in
  let _ =
    Exp_common.run ~seed:7L ~rate:100. ~duration
      ~measure_from:(Time_ns.ms 500) ~measure_until:duration ~journal ~faults
      Exp_common.fig7_double proto
  in
  let reports = Dip.analyze (Timeline.of_journal journal) in
  if reports = [] then
    Alcotest.failf "%s x %s: no fault reports" plan_file
      (Protocols.name proto);
  List.iter
    (fun r ->
      if Float.is_nan r.Dip.ttr_ms then
        Alcotest.failf "%s x %s: %s %s at %.0fms never recovered" plan_file
          (Protocols.name proto)
          r.Dip.fault r.Dip.detail r.Dip.at_ms
      else if r.Dip.ttr_ms > bound_ms then
        Alcotest.failf "%s x %s: %s %s at %.0fms took %.0fms to recover (> %.0fms)"
          plan_file
          (Protocols.name proto)
          r.Dip.fault r.Dip.detail r.Dip.at_ms r.Dip.ttr_ms bound_ms)
    reports

(* --- migration chaos: live slot moves crossed with classic faults ---

   Inline plans, not files under plans/: the glob suite above runs
   every plan file on the single-group fig7-double layout, where a
   migrate verb is an invalid_arg. These run on Exp_rebalance's
   2-group NA layout (range slots, Zipf head on g0/slot 0) instead. *)

let migration_scenarios =
  [
    ( "migrate_partition",
      "at 2s partition a=0 b=1,2 sym until=3s\n\
       at 2500ms migrate slot=0 from=0 to=1\n" );
    ( "migrate_leader_crash",
      (* node 1 (VA) is g0's spread leader — the migration source's
         leader dies 50 ms after the freeze *)
      "at 2500ms migrate slot=0 from=0 to=1\n\
       at 2550ms crash node=1\n\
       at 4s recover node=1\n" );
  ]

let migration_protocols =
  [ Protocols.domino_default; Protocols.Multi_paxos ]

let contains hay needle =
  let nh = String.length hay and nn = String.length needle in
  let rec go i = i + nn <= nh && (String.sub hay i nn = needle || go (i + 1)) in
  go 0

let check_migration_cell name plan_text proto () =
  let faults =
    match Plan.parse plan_text with
    | Ok p -> p
    | Error e -> Alcotest.failf "%s: %s" name e
  in
  let journal = Exp_rebalance.chaos_journal ~seed:7L ~faults ~proto () in
  let report =
    Checker.check ~require_complete:true
      ~slot_resolver:Domino_shard.Slots.slot_resolver_of_mark journal
  in
  (* Both scenarios delay a replica's execution stream across the
     cutover (a partitioned or crashed node catches up on its
     pre-migration backlog after the new owner's replicas moved on),
     which trips the checker's ordering classes through the aliased
     replica ids — checker.mli documents the aliasing. Those classes
     are exempted HERE ONLY, where a fault overlaps the handoff; the
     fault-free migration tests keep full strictness, and exactly-once
     and completeness — what a real double-owner or lost-op bug trips —
     are never exempted. *)
  let exempt v =
    contains v "execution order diverges"
    || contains v "executed pre-migration op"
    || contains v "but ordered after an op submitted"
  in
  let hard =
    List.filter (fun v -> not (exempt v)) report.Checker.violations
  in
  if hard <> [] then begin
    let saved = dump_journal ~plan_file:name ~proto journal in
    Alcotest.failf "%s x %s: %s@.journal saved to %s" name
      (Protocols.name proto)
      (String.concat "; " hard)
      saved
  end;
  (* The orchestrator must either complete the move (epoch bump) or
     abort it cleanly at the drain deadline — e.g. Multi-Paxos cannot
     drain the source slot while g0's leader is down, so the slot is
     released un-migrated rather than cut over with ops in flight. A
     frozen-forever slot would instead fail completeness above. *)
  let lines = Journal.to_lines journal in
  if not (contains lines "migrate.freeze") then
    Alcotest.failf "%s x %s: migration never started" name
      (Protocols.name proto);
  if report.Checker.migrations < 1 && not (contains lines "migrate.abort")
  then begin
    let saved = dump_journal ~plan_file:name ~proto journal in
    Alcotest.failf
      "%s x %s: migration neither completed nor aborted (see %s)" name
      (Protocols.name proto)
      saved
  end;
  if report.Checker.committed < 100 then
    Alcotest.failf "%s x %s: only %d ops committed" name
      (Protocols.name proto)
      report.Checker.committed;
  (* every dip — the injected fault and the migration itself — must
     recover within 2.5 s of sim time *)
  let reports =
    Dip.analyze
      (Timeline.of_journal
         ~group_resolver:Domino_shard.Slots.resolver_of_mark journal)
  in
  if reports = [] then
    Alcotest.failf "%s x %s: no fault reports" name
      (Protocols.name proto);
  List.iter
    (fun r ->
      if Float.is_nan r.Dip.ttr_ms then
        Alcotest.failf "%s x %s: %s %s at %.0fms never recovered" name
          (Protocols.name proto)
          r.Dip.fault r.Dip.detail r.Dip.at_ms
      else if r.Dip.ttr_ms > 2500. then
        Alcotest.failf "%s x %s: %s %s at %.0fms took %.0fms to recover"
          name
          (Protocols.name proto)
          r.Dip.fault r.Dip.detail r.Dip.at_ms r.Dip.ttr_ms)
    reports

(* --- maintenance chaos: leader transfer and rolling patch, alone and
   crossed with a minority partition, all with TTR deadlines ---

   Inline plans for the same reason as the migration scenarios: these
   exercise the orchestrated control verbs, and the deadline is the
   point — a graceful handoff or a per-node roll that takes longer
   than 2.5 s to give the throughput back is a regression even when
   every safety check passes. *)

let maintenance_scenarios =
  [
    ("transfer", "at 2500ms transfer group=0 to=1\n", Time_ns.sec 6);
    ( "transfer_partition",
      "at 2s partition a=2 b=0,1 sym until=3s\n\
       at 2500ms transfer group=0 to=1\n",
      Time_ns.sec 6 );
    ("roll", "at 2500ms roll group=0 dwell=300ms\n", Time_ns.sec 7);
    ( "roll_partition",
      "at 2s partition a=2 b=0,1 sym until=3s\n\
       at 2500ms roll group=0 dwell=300ms\n",
      Time_ns.sec 7 );
  ]

let maintenance_protocols =
  [ Protocols.domino_default; Protocols.Multi_paxos ]

let check_maintenance_cell name plan_text ~duration proto () =
  let faults =
    match Plan.parse plan_text with
    | Ok p -> p
    | Error e -> Alcotest.failf "%s: %s" name e
  in
  let journal = Journal.create () in
  let _ =
    Exp_common.run ~seed:7L ~rate:100. ~duration
      ~measure_from:(Time_ns.ms 500) ~measure_until:duration ~journal ~faults
      Exp_common.fig7_double proto
  in
  let report = Checker.check ~require_complete:true journal in
  if not report.Checker.ok then begin
    let saved = dump_journal ~plan_file:name ~proto journal in
    Alcotest.failf "%s x %s: %a@.journal saved to %s" name
      (Protocols.name proto)
      Checker.pp_report report saved
  end;
  if report.Checker.committed < 100 then
    Alcotest.failf "%s x %s: only %d ops committed" name
      (Protocols.name proto)
      report.Checker.committed;
  (* Every dip row — the partition, the transfer, the roll, and each
     rolled node — must recover within 2.5 s of sim time. *)
  let reports = Dip.analyze (Timeline.of_journal journal) in
  if reports = [] then
    Alcotest.failf "%s x %s: no fault reports" name
      (Protocols.name proto);
  List.iter
    (fun r ->
      if Float.is_nan r.Dip.ttr_ms then
        Alcotest.failf "%s x %s: %s %s at %.0fms never recovered" name
          (Protocols.name proto)
          r.Dip.fault r.Dip.detail r.Dip.at_ms
      else if r.Dip.ttr_ms > 2500. then
        Alcotest.failf "%s x %s: %s %s at %.0fms took %.0fms to recover" name
          (Protocols.name proto)
          r.Dip.fault r.Dip.detail r.Dip.at_ms r.Dip.ttr_ms)
    reports

let () =
  let groups =
    List.map
      (fun plan_file ->
        ( plan_file,
          List.map
            (fun proto ->
              Alcotest.test_case
                (Protocols.name proto)
                `Slow
                (check_cell plan_file proto))
            protocols ))
      plan_files
  in
  Alcotest.run "chaos"
    (groups
    @ [
        ( "determinism",
          [
            Alcotest.test_case "jobs 1 = jobs 4 (crash)" `Slow
              (test_journal_determinism "leader_crash.plan");
            Alcotest.test_case "jobs 1 = jobs 4 (wipe)" `Slow
              (test_journal_determinism "rolling_wipe.plan");
          ] );
        ( "migration chaos",
          List.concat_map
            (fun (name, plan_text) ->
              List.map
                (fun proto ->
                  Alcotest.test_case
                    (Printf.sprintf "%s %s" name
                       (Protocols.name proto))
                    `Slow
                    (check_migration_cell name plan_text proto))
                migration_protocols)
            migration_scenarios );
        ( "maintenance chaos",
          List.concat_map
            (fun (name, plan_text, duration) ->
              List.map
                (fun proto ->
                  Alcotest.test_case
                    (Printf.sprintf "%s %s" name
                       (Protocols.name proto))
                    `Slow
                    (check_maintenance_cell name plan_text ~duration proto))
                maintenance_protocols)
            maintenance_scenarios );
        ( "recovery deadlines",
          List.concat_map
            (fun (plan_file, bound_ms) ->
              List.map
                (fun proto ->
                  Alcotest.test_case
                    (Printf.sprintf "%s %s"
                       (Filename.remove_extension plan_file)
                       (Protocols.name proto))
                    `Slow
                    (test_recovery_deadline plan_file ~bound_ms proto))
                protocols)
            [ ("leader_crash.plan", 2500.); ("minority_wipe.plan", 2500.) ] );
      ])
