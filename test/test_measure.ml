(* Tests for the measurement subsystem: sliding windows, probes, and
   the latency estimator of §5.4/§5.6. *)

open Domino_sim
open Domino_measure

let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)
let span_opt = Alcotest.(option int)

(* --- Window --- *)

let test_window_percentile_basic () =
  let w = Window.create ~window:(Time_ns.sec 1) in
  List.iteri (fun i v -> Window.add w ~now:(i * Time_ns.ms 10) v) [ 10; 20; 30; 40 ];
  let now = Time_ns.ms 40 in
  Alcotest.(check span_opt) "p0" (Some 10) (Window.percentile w ~now 0.);
  Alcotest.(check span_opt) "p100" (Some 40) (Window.percentile w ~now 100.);
  Alcotest.(check span_opt) "p50" (Some 25) (Window.percentile w ~now 50.)

let test_window_expiry () =
  let w = Window.create ~window:(Time_ns.ms 100) in
  Window.add w ~now:0 1;
  Window.add w ~now:(Time_ns.ms 50) 2;
  Window.add w ~now:(Time_ns.ms 140) 3;
  (* Sample at t=0 is now older than 100ms. *)
  check_int "expired" 2 (Window.length w ~now:(Time_ns.ms 140));
  Alcotest.(check span_opt) "min is 2"
    (Some 2)
    (Window.percentile w ~now:(Time_ns.ms 140) 0.)

let test_window_empty () =
  let w = Window.create ~window:(Time_ns.ms 10) in
  Alcotest.(check span_opt) "none" None (Window.percentile w ~now:0 50.);
  Window.add w ~now:0 5;
  check_int "all expired later" 0 (Window.length w ~now:(Time_ns.sec 1))

let test_window_last_and_clear () =
  let w = Window.create ~window:(Time_ns.ms 10) in
  Window.add w ~now:0 7;
  Alcotest.(check span_opt) "last" (Some 7) (Window.last w);
  Window.clear w;
  Alcotest.(check span_opt) "cleared" None (Window.last w)

let test_window_growth () =
  let w = Window.create ~window:(Time_ns.sec 10) in
  for i = 1 to 1_000 do
    Window.add w ~now:(i * Time_ns.ms 1) i
  done;
  check_int "all live" 1_000 (Window.length w ~now:(Time_ns.sec 1));
  Alcotest.(check span_opt) "max" (Some 1_000)
    (Window.percentile w ~now:(Time_ns.sec 1) 100.)

let prop_window_percentile_matches_naive =
  QCheck.Test.make ~name:"window percentile = naive percentile (no expiry)"
    ~count:200
    QCheck.(
      pair
        (list_of_size (Gen.int_range 1 60) (int_bound 1_000))
        (int_bound 100))
    (fun (values, p) ->
      let w = Window.create ~window:(Time_ns.sec 100) in
      List.iteri (fun i v -> Window.add w ~now:i v) values;
      let got =
        Window.percentile w ~now:(List.length values) (float_of_int p)
      in
      let sorted = Array.of_list (List.sort compare values) in
      let n = Array.length sorted in
      let rank = float_of_int p /. 100. *. float_of_int (n - 1) in
      let lo = int_of_float (floor rank) and hi = int_of_float (ceil rank) in
      let expected =
        if lo = hi then sorted.(lo)
        else begin
          let frac = rank -. float_of_int lo in
          sorted.(lo) + int_of_float (frac *. float_of_int (sorted.(hi) - sorted.(lo)))
        end
      in
      got = Some expected)

(* --- Probe --- *)

let test_probe_reply_echoes () =
  let req = { Probe.seq = 42; sent_local = Time_ns.ms 10 } in
  let rep =
    Probe.reply_of_request req ~replica_local:(Time_ns.ms 60)
      ~replication_latency:(Time_ns.ms 30)
  in
  check_int "seq" 42 rep.Probe.seq;
  check_int "echo" (Time_ns.ms 10) rep.Probe.sent_local;
  check_int "replica ts" (Time_ns.ms 60) rep.Probe.replica_local

(* --- Estimator --- *)

let feed est ~replica ~now ~rtt ~offset ?(l_r = max_int) () =
  let reply =
    {
      Probe.seq = 0;
      sent_local = now - rtt;
      replica_local = now - rtt + offset;
      replication_latency = l_r;
    }
  in
  Estimator.record_reply est ~replica ~now_local:now reply

let ms = Time_ns.ms

let test_estimator_rtt () =
  let est = Estimator.create ~n_replicas:3 () in
  let now = ref (ms 100) in
  for _ = 1 to 20 do
    feed est ~replica:0 ~now:!now ~rtt:(ms 50) ~offset:(ms 25) ();
    now := !now + ms 10
  done;
  Alcotest.(check span_opt) "rtt p95" (Some (ms 50))
    (Estimator.rtt est ~replica:0 ~now_local:!now);
  Alcotest.(check span_opt) "offset p95" (Some (ms 25))
    (Estimator.arrival_offset est ~replica:0 ~now_local:!now);
  Alcotest.(check span_opt) "unprobed replica" None
    (Estimator.rtt est ~replica:1 ~now_local:!now)

let test_estimator_staleness () =
  let est = Estimator.create ~n_replicas:2 () in
  feed est ~replica:0 ~now:(ms 100) ~rtt:(ms 50) ~offset:(ms 25) ();
  Alcotest.(check bool) "fresh" true
    (Estimator.rtt est ~replica:0 ~now_local:(ms 200) <> None);
  Alcotest.(check span_opt) "stale after timeout" None
    (Estimator.rtt est ~replica:0 ~now_local:(Time_ns.sec 2))

let test_estimator_self_zero () =
  let est = Estimator.create ~self:1 ~n_replicas:3 () in
  Alcotest.(check span_opt) "self rtt 0" (Some 0)
    (Estimator.rtt est ~replica:1 ~now_local:0)

let test_estimator_request_timestamp () =
  let est = Estimator.create ~n_replicas:3 () in
  let now = ms 1000 in
  (* offsets 10, 30, 50ms -> q=2 smallest arrival = now+30ms. *)
  List.iteri
    (fun i off -> feed est ~replica:i ~now ~rtt:(2 * off) ~offset:off ())
    [ ms 10; ms 30; ms 50 ];
  Alcotest.(check span_opt) "q=2 arrival" (Some (now + ms 30))
    (Estimator.request_timestamp est ~now_local:now ~q:2 ~extra:0);
  Alcotest.(check span_opt) "q=3 + extra" (Some (now + ms 58))
    (Estimator.request_timestamp est ~now_local:now ~q:3 ~extra:(ms 8));
  Alcotest.(check span_opt) "q too large" None
    (Estimator.request_timestamp est ~now_local:now ~q:4 ~extra:0)

let test_estimator_lat_dfp_dm_choice () =
  let est = Estimator.create ~n_replicas:3 () in
  let now = ms 1000 in
  (* RTTs 20/60/100; q=3 -> Lat_DFP = 100.
     L_r piggybacked: replica 0 advertises 30ms -> Lat_DM = 20+30 = 50. *)
  feed est ~replica:0 ~now ~rtt:(ms 20) ~offset:(ms 10) ~l_r:(ms 30) ();
  feed est ~replica:1 ~now ~rtt:(ms 60) ~offset:(ms 30) ~l_r:(ms 60) ();
  feed est ~replica:2 ~now ~rtt:(ms 100) ~offset:(ms 50) ~l_r:(ms 90) ();
  Alcotest.(check span_opt) "lat dfp" (Some (ms 100))
    (Estimator.lat_dfp est ~q:3 ~now_local:now);
  (match Estimator.lat_dm est ~now_local:now with
  | Some (lat, leader) ->
    check_int "dm lat" (ms 50) lat;
    check_int "dm leader" 0 leader
  | None -> Alcotest.fail "expected DM estimate");
  (match Estimator.choose est ~q:3 ~now_local:now with
  | Estimator.Dm 0 -> ()
  | c -> Alcotest.failf "expected Dm 0, got %a" Estimator.pp_choice c)

let test_estimator_choose_dfp_when_cheaper () =
  let est = Estimator.create ~n_replicas:3 () in
  let now = ms 1000 in
  (* RTTs all 50 -> DFP 50; DM best = 50 + 40 = 90 -> DFP. *)
  List.iter
    (fun i -> feed est ~replica:i ~now ~rtt:(ms 50) ~offset:(ms 25) ~l_r:(ms 40) ())
    [ 0; 1; 2 ];
  match Estimator.choose est ~q:3 ~now_local:now with
  | Estimator.Dfp -> ()
  | c -> Alcotest.failf "expected Dfp, got %a" Estimator.pp_choice c

let test_estimator_failure_steers_to_dm () =
  (* A dead replica makes the supermajority quorum unreachable: DFP has
     no estimate, so the client must fall back to DM (§5.8). *)
  let est = Estimator.create ~n_replicas:3 () in
  let now = ms 1000 in
  feed est ~replica:0 ~now ~rtt:(ms 20) ~offset:(ms 10) ~l_r:(ms 30) ();
  feed est ~replica:1 ~now ~rtt:(ms 40) ~offset:(ms 20) ~l_r:(ms 40) ();
  (* replica 2 never answers *)
  Alcotest.(check span_opt) "no dfp" None (Estimator.lat_dfp est ~q:3 ~now_local:now);
  match Estimator.choose est ~q:3 ~now_local:now with
  | Estimator.Dm _ -> ()
  | c -> Alcotest.failf "expected Dm, got %a" Estimator.pp_choice c

let test_estimator_percentile_config () =
  let est = Estimator.create ~percentile:50. ~n_replicas:1 () in
  let now = ref (ms 100) in
  (* Alternate 10ms and 100ms RTTs: p50 sits between, p95 near 100. *)
  for i = 1 to 40 do
    let rtt = if i mod 2 = 0 then ms 10 else ms 100 in
    feed est ~replica:0 ~now:!now ~rtt ~offset:(rtt / 2) ();
    now := !now + ms 10
  done;
  let p50 = Option.get (Estimator.rtt est ~replica:0 ~now_local:!now) in
  Estimator.set_percentile est 95.;
  let p95 = Option.get (Estimator.rtt est ~replica:0 ~now_local:!now) in
  check_bool "p50 < p95" true (p50 < p95);
  check_int "p95 near max" (ms 100) p95

let test_estimator_replication_latency () =
  (* On a replica (self=0) with peers at 30/70ms: majority m=2 counts
     self as 0, so L_r = 30ms. *)
  let est = Estimator.create ~self:0 ~n_replicas:3 () in
  let now = ms 1000 in
  feed est ~replica:1 ~now ~rtt:(ms 30) ~offset:(ms 15) ();
  feed est ~replica:2 ~now ~rtt:(ms 70) ~offset:(ms 35) ();
  Alcotest.(check span_opt) "L_r" (Some (ms 30))
    (Estimator.replication_latency est ~m:2 ~now_local:now)

let () =
  let q = QCheck_alcotest.to_alcotest in
  Alcotest.run "measure"
    [
      ( "window",
        [
          Alcotest.test_case "percentile basic" `Quick test_window_percentile_basic;
          Alcotest.test_case "expiry" `Quick test_window_expiry;
          Alcotest.test_case "empty" `Quick test_window_empty;
          Alcotest.test_case "last/clear" `Quick test_window_last_and_clear;
          Alcotest.test_case "growth" `Quick test_window_growth;
          q prop_window_percentile_matches_naive;
        ] );
      ("probe", [ Alcotest.test_case "reply echoes" `Quick test_probe_reply_echoes ]);
      ( "estimator",
        [
          Alcotest.test_case "rtt/offset percentiles" `Quick test_estimator_rtt;
          Alcotest.test_case "staleness" `Quick test_estimator_staleness;
          Alcotest.test_case "self zero" `Quick test_estimator_self_zero;
          Alcotest.test_case "request timestamp" `Quick test_estimator_request_timestamp;
          Alcotest.test_case "DFP/DM estimates and choice" `Quick
            test_estimator_lat_dfp_dm_choice;
          Alcotest.test_case "chooses DFP when cheaper" `Quick
            test_estimator_choose_dfp_when_cheaper;
          Alcotest.test_case "failure steers to DM" `Quick
            test_estimator_failure_steers_to_dm;
          Alcotest.test_case "percentile config" `Quick test_estimator_percentile_config;
          Alcotest.test_case "replication latency" `Quick
            test_estimator_replication_latency;
        ] );
    ]
