(* End-to-end tests for the baseline protocols over the simulated WAN:
   commit/convergence invariants plus the latency structure each
   protocol should exhibit on the paper's topologies. *)

open Domino_sim
open Domino_net
open Domino_smr
open Domino_exp

let check_bool = Alcotest.(check bool)

let quick_run ?(setting = Exp_common.na3) ?(seed = 7L) ?alpha ?rate proto =
  Exp_common.run ~seed ?alpha ?rate ~duration:(Time_ns.sec 8)
    ~measure_from:(Time_ns.sec 2)
    ~measure_until:(Time_ns.sec 7) setting proto

let all_committed (r : Exp_common.result) =
  Observer.Recorder.committed r.recorder = Observer.Recorder.submitted r.recorder

let converged (r : Exp_common.result) =
  match r.store_fingerprints with
  | [] -> false
  | x :: rest -> List.for_all (fun y -> y = x) rest

let p50 (r : Exp_common.result) =
  Domino_stats.Summary.median (Observer.Recorder.commit_latency_ms r.recorder)

(* --- invariants for every protocol --- *)

let protocols =
  [
    ("multi-paxos", Exp_common.Multi_paxos);
    ("mencius", Exp_common.Mencius);
    ("epaxos", Exp_common.Epaxos);
    ("fast-paxos", Exp_common.Fast_paxos);
  ]

let test_liveness_and_convergence name proto () =
  let r = quick_run proto in
  check_bool (name ^ " commits everything") true (all_committed r);
  check_bool (name ^ " replicas converge") true (converged r);
  check_bool (name ^ " commit latency sane") true
    (let v = p50 r in
     v > 5. && v < 500.)

(* --- Multi-Paxos latency structure --- *)

let test_multipaxos_remote_client_two_roundtrips () =
  (* IA client -> WA leader (36ms) + WA majority replication (67ms). *)
  let r = quick_run ~setting:Exp_common.fig7_single Exp_common.Multi_paxos in
  let v = p50 r in
  check_bool "≈103ms" true (Float.abs (v -. 103.) < 12.)

let test_multipaxos_colocated_client_one_roundtrip () =
  let r = quick_run ~setting:Exp_common.fig7_double Exp_common.Multi_paxos in
  (* Client node 4 is in WA with the leader: only the replication RTT. *)
  let wa =
    Domino_stats.Summary.median
      (Observer.Recorder.commit_latency_of_client_ms r.recorder 4)
  in
  let ia =
    Domino_stats.Summary.median
      (Observer.Recorder.commit_latency_of_client_ms r.recorder 3)
  in
  check_bool "WA ≈67ms" true (Float.abs (wa -. 67.) < 10.);
  check_bool "IA ≈103ms" true (Float.abs (ia -. 103.) < 12.);
  check_bool "IA slower than WA" true (ia > wa +. 20.)

(* --- Fast Paxos: the Figure 7 collapse --- *)

let test_fastpaxos_single_client_fast () =
  let frac = Exp_fig7.fast_paxos_slow_fraction ~seed:3L ~clients:1 () in
  check_bool "fast path dominates" true (frac < 0.05)

let test_fastpaxos_two_clients_collide () =
  let frac = Exp_fig7.fast_paxos_slow_fraction ~seed:3L ~clients:2 () in
  check_bool "slow path dominates" true (frac > 0.5)

let test_fastpaxos_single_client_latency () =
  (* One roundtrip to the supermajority: max IA RTT to WA/VA/QC = 36ms. *)
  let r = quick_run ~setting:Exp_common.fig7_single Exp_common.Fast_paxos in
  let v = p50 r in
  check_bool "≈36ms" true (Float.abs (v -. 36.) < 8.)

let test_fastpaxos_beats_multipaxos_single_client () =
  let fp = quick_run ~setting:Exp_common.fig7_single Exp_common.Fast_paxos in
  let mp = quick_run ~setting:Exp_common.fig7_single Exp_common.Multi_paxos in
  (* Paper: ~65ms lower median. *)
  check_bool "fp far below mp" true (p50 mp -. p50 fp > 40.)

let test_fastpaxos_loses_with_two_clients () =
  let fp = quick_run ~setting:Exp_common.fig7_double Exp_common.Fast_paxos in
  let mp = quick_run ~setting:Exp_common.fig7_double Exp_common.Multi_paxos in
  check_bool "fp above mp with conflicts" true (p50 fp > p50 mp)

(* --- Mencius --- *)

let test_mencius_below_multipaxos_na () =
  let me = quick_run Exp_common.Mencius in
  let mp = quick_run Exp_common.Multi_paxos in
  (* Fig 8a: Mencius ~75ms vs Multi-Paxos ~107ms at the median. *)
  check_bool "mencius beats mp at median (NA)" true (p50 me < p50 mp)

let test_mencius_single_client_liveness () =
  (* With one client, two owners are idle; SKIPs must keep the log
     moving. *)
  let r = quick_run ~setting:Exp_common.fig7_single Exp_common.Mencius in
  check_bool "commits" true (all_committed r);
  check_bool "converges" true (converged r)

(* --- EPaxos --- *)

let test_epaxos_fast_path_without_conflicts () =
  let r = quick_run Exp_common.Epaxos in
  let total = r.fast_commits + r.slow_commits in
  check_bool "mostly fast" true
    (total > 0 && float_of_int r.fast_commits /. float_of_int total > 0.9)

let test_epaxos_conflicts_force_accept_round () =
  (* A single hot key forces divergent dependencies. *)
  let r = quick_run ~alpha:0.99 ~rate:400. Exp_common.Epaxos in
  check_bool "some slow commits" true (r.slow_commits > 0);
  check_bool "still converges" true (converged r);
  check_bool "still commits everything" true (all_committed r)

let test_epaxos_latency_two_roundtrips () =
  (* IA client -> closest replica QC (32ms) + QC's nearest peer round
     (QC-TRT is not a replica; QC->VA 38... QC->WA 68, QC->VA 38):
     fast quorum of 2 needs 1 peer: 38ms. Total ≈ 32 + 38 = 70. *)
  let r = quick_run ~setting:Exp_common.fig7_single Exp_common.Epaxos in
  let v = p50 r in
  check_bool "≈70ms" true (Float.abs (v -. 70.) < 12.)

(* --- Catch-up after one missed commit notice --- *)

(* Replicas 0-2 (0 leads), client 3, 5 ms links. The first commit
   notice addressed to replica 2 is lost: the replica goes down as it is
   sent and comes back up the moment it is dropped, so nothing else
   addressed to it is lost. One more op follows, so replica 2 holds
   exactly one decision parked behind one gap; it must pull the missed
   commit and then execute both ops in slot order. *)
let test_single_missed_commit ~make ~classify () =
  let n = 4 and victim = 2 in
  let engine = Engine.create ~seed:5L () in
  let net = Fifo_net.create engine ~n in
  let rng = Rng.create 5L in
  for src = 0 to n - 1 do
    for dst = 0 to n - 1 do
      if src <> dst then
        Fifo_net.set_link net ~src ~dst (Link.create ~base_owd:(Time_ns.ms 5) rng)
    done
  done;
  let executed = ref [] in
  let on_execute ~replica (op : Op.t) ~now:_ =
    if replica = victim then executed := op.seq :: !executed
  in
  let submit = make net { Observer.null with on_execute } in
  let armed = ref true and dropped = ref [] in
  Fifo_net.set_message_hooks net
    ~sent:(fun ~seq:_ ~src:_ ~dst msg ~at:_ ->
      if !armed && dst = victim && classify msg = Msg_class.Commit_notice then begin
        armed := false;
        Fifo_net.crash net victim
      end)
    ~delivered:(fun ~seq:_ ~src:_ ~dst:_ _ ~sent_at:_ ~at:_ -> ())
    ~dropped:(fun ~seq:_ ~src:_ ~dst msg ~reason:_ ~at:_ ->
      dropped := (dst, classify msg) :: !dropped;
      if dst = victim then Fifo_net.recover net victim);
  List.iter
    (fun (seq, at) ->
      Engine.schedule_at engine ~at:(Time_ns.ms at) (fun () ->
          submit (Op.make ~client:3 ~seq ~key:seq ~value:(Int64.of_int seq))))
    [ (0, 10); (1, 110) ];
  Engine.run ~until:(Time_ns.sec 2) engine;
  check_bool "exactly one commit notice lost" true
    (!dropped = [ (victim, Msg_class.Commit_notice) ]);
  Alcotest.(check (list int)) "replica 2 executes every op in slot order"
    [ 0; 1 ] (List.rev !executed)

let multipaxos net observer =
  Domino_proto.Multipaxos.submit
    (Domino_proto.Multipaxos.create ~net ~replicas:[| 0; 1; 2 |] ~leader:0
       ~observer ())

let fastpaxos net observer =
  Domino_proto.Fastpaxos.submit
    (Domino_proto.Fastpaxos.create ~net ~replicas:[| 0; 1; 2 |] ~coordinator:0
       ~observer ())

let () =
  Alcotest.run "proto"
    [
      ( "invariants",
        List.map
          (fun (name, proto) ->
            Alcotest.test_case name `Slow (test_liveness_and_convergence name proto))
          protocols );
      ( "multi-paxos",
        [
          Alcotest.test_case "remote client 2 RTT" `Slow
            test_multipaxos_remote_client_two_roundtrips;
          Alcotest.test_case "colocated client 1 RTT" `Slow
            test_multipaxos_colocated_client_one_roundtrip;
        ] );
      ( "fast-paxos",
        [
          Alcotest.test_case "single client fast" `Slow test_fastpaxos_single_client_fast;
          Alcotest.test_case "two clients collide" `Slow
            test_fastpaxos_two_clients_collide;
          Alcotest.test_case "single client latency" `Slow
            test_fastpaxos_single_client_latency;
          Alcotest.test_case "beats MP single client" `Slow
            test_fastpaxos_beats_multipaxos_single_client;
          Alcotest.test_case "loses with two clients" `Slow
            test_fastpaxos_loses_with_two_clients;
        ] );
      ( "mencius",
        [
          Alcotest.test_case "below MP in NA" `Slow test_mencius_below_multipaxos_na;
          Alcotest.test_case "single-client liveness" `Slow
            test_mencius_single_client_liveness;
        ] );
      ( "epaxos",
        [
          Alcotest.test_case "fast path" `Slow test_epaxos_fast_path_without_conflicts;
          Alcotest.test_case "conflicts" `Slow test_epaxos_conflicts_force_accept_round;
          Alcotest.test_case "two roundtrips" `Slow test_epaxos_latency_two_roundtrips;
        ] );
      ( "catch-up",
        [
          Alcotest.test_case "multi-paxos single missed commit" `Quick
            (test_single_missed_commit ~make:multipaxos
               ~classify:Domino_proto.Multipaxos.classify);
          Alcotest.test_case "fast-paxos single missed commit" `Quick
            (test_single_missed_commit ~make:fastpaxos
               ~classify:Domino_proto.Fastpaxos.classify);
        ] );
    ]
