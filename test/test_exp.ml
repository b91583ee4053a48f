(* Tests for the experiment harness: the §4 geometry analysis, setting
   definitions, and the scaled experiment runners. *)

open Domino_sim
open Domino_exp

let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)

let test_geometry_matches_paper () =
  let r = Exp_geometry.analyse () in
  check_int "cases" 120 r.cases;
  (* Paper §4: 32.5% and 70.8%. Our leader handling enumerates all
     leaders instead of sampling, so allow a few points of slack. *)
  check_bool "FP<Mencius ~32.5%" true
    (Float.abs (r.fp_beats_mencius_pct -. 32.5) < 5.);
  check_bool "FP<MP ~70.8%" true
    (Float.abs (r.fp_beats_multipaxos_pct -. 70.8) < 5.)

let test_fig4_example () =
  let mp, fp = Exp_geometry.fig4_example () in
  Alcotest.(check (float 0.)) "multi-paxos 30ms" 30. mp;
  Alcotest.(check (float 0.)) "fast paxos 35ms" 35. fp

let test_settings_shape () =
  check_int "na3 replicas" 3 (Array.length Exp_common.na3.replica_dcs);
  check_int "na5 replicas" 5 (Array.length Exp_common.na5.replica_dcs);
  check_int "na clients" 9 (Array.length Exp_common.na3.client_dcs);
  check_int "globe clients" 6 (Array.length Exp_common.globe3.client_dcs)

let test_closest_replica () =
  (* In na3 (WA/VA/QC), a TRT client's closest replica is QC (11ms). *)
  check_int "TRT -> QC" 2 (Exp_common.closest_replica Exp_common.na3 ~client_dc:"TRT");
  (* Co-located clients pick their own replica. *)
  check_int "WA -> WA" 0 (Exp_common.closest_replica Exp_common.na3 ~client_dc:"WA");
  check_int "VA -> VA" 1 (Exp_common.closest_replica Exp_common.na3 ~client_dc:"VA")

(* A one-cell sweep merges its runs' samples. *)
let test_runs_merge () =
  let commit, exec =
    match
      Exp_common.run_sweep ~runs:2 ~duration:(Time_ns.sec 6)
        [ (Exp_common.fig7_single, Exp_common.Multi_paxos) ]
    with
    | [ cell ] -> cell
    | _ -> Alcotest.fail "one cell in, one result out"
  in
  check_bool "merged commit samples" true (Domino_stats.Summary.count commit > 100);
  check_bool "exec recorded" true (Domino_stats.Summary.count exec > 100)

let test_run_deterministic () =
  let go () =
    let r =
      Exp_common.run ~seed:123L ~duration:(Time_ns.sec 6) Exp_common.fig7_single
        Exp_common.Multi_paxos
    in
    Domino_stats.Summary.mean
      (Domino_smr.Observer.Recorder.commit_latency_ms r.recorder)
  in
  Alcotest.(check (float 1e-12)) "same seed, same result" (go ()) (go ())

let test_fig12a_phases () =
  let phases = Exp_fig12.run_a ~duration:(Time_ns.sec 30) () in
  match phases with
  | [ p1; p2; p3 ] ->
    (* Domino: 30 -> 50 (DFP) -> 60 (switches to DM). *)
    check_bool "phase1 ~30" true (Float.abs (p1.domino_ms -. 30.) < 4.);
    check_bool "phase2 ~50" true (Float.abs (p2.domino_ms -. 50.) < 4.);
    check_bool "phase3 ~60" true (Float.abs (p3.domino_ms -. 60.) < 4.);
    (* Mencius stuck on R: 60 -> 80 -> 100. *)
    check_bool "mencius 60" true (Float.abs (p1.mencius_ms -. 60.) < 4.);
    check_bool "mencius 80" true (Float.abs (p2.mencius_ms -. 80.) < 4.);
    check_bool "mencius 100" true (Float.abs (p3.mencius_ms -. 100.) < 4.);
    check_bool "domino always at or below" true
      (p1.domino_ms < p1.mencius_ms
      && p2.domino_ms < p2.mencius_ms
      && p3.domino_ms < p3.mencius_ms)
  | _ -> Alcotest.fail "expected three phases"

let test_fig12b_phases () =
  let phases = Exp_fig12.run_b ~duration:(Time_ns.sec 30) () in
  match phases with
  | [ p1; p2; p3 ] ->
    check_bool "phase1 equal" true (Float.abs (p1.domino_ms -. p1.mencius_ms) < 4.);
    check_bool "phase2 domino wins" true (p2.domino_ms < p2.mencius_ms -. 5.);
    check_bool "phase3 domino wins" true (p3.domino_ms < p3.mencius_ms -. 5.)
  | _ -> Alcotest.fail "expected three phases"

let () =
  Alcotest.run "exp"
    [
      ( "geometry",
        [
          Alcotest.test_case "percentages" `Quick test_geometry_matches_paper;
          Alcotest.test_case "fig4" `Quick test_fig4_example;
        ] );
      ( "settings",
        [
          Alcotest.test_case "shapes" `Quick test_settings_shape;
          Alcotest.test_case "closest replica" `Quick test_closest_replica;
        ] );
      ( "runner",
        [
          Alcotest.test_case "run_many merges" `Slow test_runs_merge;
          Alcotest.test_case "deterministic" `Slow test_run_deterministic;
        ] );
      ( "fig12",
        [
          Alcotest.test_case "12a phases" `Slow test_fig12a_phases;
          Alcotest.test_case "12b phases" `Slow test_fig12b_phases;
        ] );
    ]
