(* Tests for the WAN substrate: clocks, jitter, links, FIFO delivery,
   topologies. *)

open Domino_sim
open Domino_net

let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)

(* --- Clock --- *)

let test_clock_perfect () =
  check_int "identity" 12345 (Clock.now Clock.perfect 12345)

let test_clock_offset_drift () =
  let c = Clock.create ~offset:(Time_ns.ms 5) ~drift_ppm:100. () in
  (* After 1s of true time, a 100 ppm clock gains 100us. *)
  check_int "offset+drift"
    (Time_ns.sec 1 + Time_ns.ms 5 + Time_ns.us 100)
    (Clock.now c (Time_ns.sec 1))

let test_clock_step () =
  let c = Clock.create () in
  Clock.set_offset c (Time_ns.ms 2);
  check_int "stepped" (Time_ns.ms 2) (Clock.now c 0)

let test_clock_random_bounded () =
  let rng = Rng.create 3L in
  for _ = 1 to 100 do
    let c = Clock.random rng ~max_offset:(Time_ns.ms 2) ~max_drift_ppm:50. in
    check_bool "offset bounded" true (abs (Clock.offset c) <= Time_ns.ms 2);
    check_bool "drift bounded" true (Float.abs (Clock.drift_ppm c) <= 50.)
  done

(* --- Jitter --- *)

let test_jitter_nonnegative () =
  let rng = Rng.create 5L in
  let j = Jitter.create rng in
  for i = 1 to 10_000 do
    check_bool "nonneg" true (Jitter.sample_ms j ~now:(i * Time_ns.ms 1) >= 0.)
  done

let test_jitter_stable_within_window () =
  (* Within one second the level should rarely move: the p95 of one
     window should predict most of the next window. *)
  let rng = Rng.create 7L in
  let j = Jitter.create rng in
  let sample_sec sec =
    List.init 100 (fun i ->
        Jitter.sample_ms j ~now:(Time_ns.sec sec + (i * Time_ns.ms 10)))
  in
  let w1 = sample_sec 1 and w2 = sample_sec 2 in
  let sorted = List.sort compare w1 in
  let p95 = List.nth sorted 94 in
  let late = List.length (List.filter (fun x -> x > p95) w2) in
  check_bool "mostly predictable" true (late < 20)

let test_jitter_spikes_exist () =
  let rng = Rng.create 9L in
  let j = Jitter.create rng in
  let big = ref 0 in
  for i = 1 to 20_000 do
    if Jitter.sample_ms j ~now:(i * Time_ns.us 100) > 1.0 then incr big
  done;
  (* ~3% spike probability -> roughly 600 of 20k; allow wide margin. *)
  check_bool "some spikes" true (!big > 200 && !big < 2_000)

(* --- Link --- *)

let test_link_sample_positive_and_near_base () =
  let rng = Rng.create 11L in
  let link = Link.create ~loss:0. ~base_owd:(Time_ns.ms 50) rng in
  for i = 1 to 1_000 do
    let d = Link.sample link ~now:(i * Time_ns.ms 1) in
    check_bool "at least base" true (d >= Time_ns.ms 50);
    check_bool "below base+50ms" true (d < Time_ns.ms 100)
  done

let test_link_route_change () =
  let rng = Rng.create 13L in
  let link = Link.create ~loss:0. ~base_owd:(Time_ns.ms 10) rng in
  Link.set_base_owd link (Time_ns.ms 30);
  check_int "base updated" (Time_ns.ms 30) (Link.base_owd link);
  check_bool "samples follow" true (Link.sample link ~now:0 >= Time_ns.ms 30)

let test_link_loss_penalty () =
  let rng = Rng.create 17L in
  let link = Link.create ~loss:1.0 ~base_owd:(Time_ns.ms 1) rng in
  check_bool "loss adds rto" true (Link.sample link ~now:0 >= Time_ns.ms 200)

(* --- Fifo_net --- *)

let mk_net ?(n = 3) ?(owd = Time_ns.ms 10) () =
  let engine = Engine.create () in
  let net = Fifo_net.create engine ~n in
  let rng = Engine.rng engine in
  for src = 0 to n - 1 do
    for dst = 0 to n - 1 do
      if src <> dst then
        Fifo_net.set_link net ~src ~dst
          (Link.create ~jitter:Jitter.calm_lan ~loss:0. ~base_owd:owd rng)
    done
  done;
  (engine, net)

let test_net_delivers () =
  let engine, net = mk_net () in
  let got = ref [] in
  Fifo_net.set_handler net 1 (fun ~src msg -> got := (src, msg) :: !got);
  Fifo_net.send net ~src:0 ~dst:1 "hello";
  Engine.run engine;
  Alcotest.(check (list (pair int string))) "delivered" [ (0, "hello") ] !got;
  check_int "counted" 1 (Fifo_net.messages_delivered net)

let test_net_fifo_per_pair () =
  let engine, net = mk_net () in
  let got = ref [] in
  Fifo_net.set_handler net 1 (fun ~src:_ msg -> got := msg :: !got);
  for i = 1 to 200 do
    Fifo_net.send net ~src:0 ~dst:1 i
  done;
  Engine.run engine;
  Alcotest.(check (list int)) "in order" (List.init 200 (fun i -> i + 1))
    (List.rev !got)

let test_net_fifo_across_jitter () =
  (* Even with heavy jitter and loss-retransmits, per-pair order holds. *)
  let engine = Engine.create () in
  let net = Fifo_net.create engine ~n:2 in
  let rng = Engine.rng engine in
  Fifo_net.set_link net ~src:0 ~dst:1
    (Link.create ~loss:0.2 ~base_owd:(Time_ns.ms 5) rng);
  Fifo_net.set_link net ~src:1 ~dst:0
    (Link.create ~loss:0.2 ~base_owd:(Time_ns.ms 5) rng);
  let got = ref [] in
  Fifo_net.set_handler net 1 (fun ~src:_ msg -> got := msg :: !got);
  for i = 1 to 500 do
    ignore
      (Engine.schedule engine ~delay:(i * Time_ns.us 100) (fun () ->
           Fifo_net.send net ~src:0 ~dst:1 i))
  done;
  Engine.run engine;
  Alcotest.(check (list int)) "ordered despite retransmits"
    (List.init 500 (fun i -> i + 1))
    (List.rev !got)

let test_net_self_delivery () =
  let engine, net = mk_net () in
  let got = ref false in
  let sync = ref true in
  Fifo_net.set_handler net 0 (fun ~src msg ->
      check_int "self src" 0 src;
      Alcotest.(check string) "msg" "loop" msg;
      got := true;
      check_bool "asynchronous" false !sync);
  Fifo_net.send net ~src:0 ~dst:0 "loop";
  sync := false;
  Engine.run engine;
  check_bool "delivered" true !got

let test_net_crash_drops () =
  let engine, net = mk_net () in
  let got = ref 0 in
  Fifo_net.set_handler net 1 (fun ~src:_ _ -> incr got);
  Fifo_net.crash net 1;
  Fifo_net.send net ~src:0 ~dst:1 "lost";
  Engine.run engine;
  check_int "dropped at dst" 0 !got;
  Fifo_net.restart net 1;
  check_bool "up again" true (Fifo_net.is_up net 1);
  Fifo_net.send net ~src:0 ~dst:1 "ok";
  Engine.run engine;
  check_int "delivered after restart" 1 !got

let test_net_crashed_sender_drops () =
  let engine, net = mk_net () in
  let got = ref 0 in
  Fifo_net.set_handler net 1 (fun ~src:_ _ -> incr got);
  Fifo_net.crash net 0;
  Fifo_net.send net ~src:0 ~dst:1 "x";
  Engine.run engine;
  check_int "not sent" 0 !got

let test_net_local_time () =
  let engine, net = mk_net () in
  Fifo_net.set_clock net 1 (Clock.create ~offset:(Time_ns.ms 7) ());
  Engine.run ~until:(Time_ns.ms 10) engine;
  check_int "node 0 perfect" (Time_ns.ms 10) (Fifo_net.local_time net 0);
  check_int "node 1 offset" (Time_ns.ms 17) (Fifo_net.local_time net 1)

let test_net_service_queue () =
  let engine, net = mk_net ~owd:(Time_ns.ms 1) () in
  let done_at = ref [] in
  Fifo_net.set_service net 1 ~workers:1 ~cost:(fun _ -> Time_ns.ms 10);
  Fifo_net.set_handler net 1 (fun ~src:_ _ ->
      done_at := Engine.now engine :: !done_at);
  (* Two messages arrive ~1ms apart but each takes 10ms to process. *)
  Fifo_net.send net ~src:0 ~dst:1 "a";
  Fifo_net.send net ~src:0 ~dst:1 "b";
  Engine.run engine;
  (match List.rev !done_at with
  | [ a; b ] ->
    check_bool "first after cost" true (a >= Time_ns.ms 11);
    check_bool "second queued behind" true (b - a >= Time_ns.ms 10)
  | _ -> Alcotest.fail "expected two deliveries");
  check_bool "busy accounted" true
    (Fifo_net.service_busy_ns net 1 = Time_ns.ms 20)

let test_net_service_workers_parallel () =
  let engine, net = mk_net ~owd:(Time_ns.ms 1) () in
  let done_at = ref [] in
  Fifo_net.set_service net 1 ~workers:2 ~cost:(fun _ -> Time_ns.ms 10);
  Fifo_net.set_handler net 1 (fun ~src:_ _ ->
      done_at := Engine.now engine :: !done_at);
  Fifo_net.send net ~src:0 ~dst:1 "a";
  Fifo_net.send net ~src:0 ~dst:1 "b";
  Engine.run engine;
  match List.rev !done_at with
  | [ a; b ] -> check_bool "parallel service" true (b - a < Time_ns.ms 10)
  | _ -> Alcotest.fail "expected two deliveries"

(* --- Topology --- *)

let test_topology_matrices () =
  check_int "globe size" 6 (Topology.size Topology.globe);
  check_int "na size" 9 (Topology.size Topology.na);
  let g = Topology.globe in
  let va = Topology.index g "VA" and wa = Topology.index g "WA" in
  Alcotest.(check (float 0.)) "VA-WA 67" 67. (Topology.rtt_ms g va wa);
  Alcotest.(check (float 0.)) "symmetric" (Topology.rtt_ms g va wa)
    (Topology.rtt_ms g wa va);
  Alcotest.(check (float 0.)) "self 0" 0. (Topology.rtt_ms g va va);
  let n = Topology.na in
  let qc = Topology.index n "QC" and trt = Topology.index n "TRT" in
  Alcotest.(check (float 0.)) "QC-TRT 11" 11. (Topology.rtt_ms n qc trt)

let test_topology_unknown_dc () =
  Alcotest.check_raises "raises Not_found" Not_found (fun () ->
      ignore (Topology.index Topology.globe "MARS"))

let test_topology_asymmetry () =
  let g = Topology.globe in
  for i = 0 to Topology.size g - 1 do
    for j = 0 to Topology.size g - 1 do
      if i <> j then begin
        let f = Topology.forward_fraction g i j in
        check_bool "in range" true (f >= 0.40 && f <= 0.60);
        Alcotest.(check (float 1e-9)) "fractions sum to 1" 1.
          (f +. Topology.forward_fraction g j i);
        Alcotest.(check (float 1e-6)) "owds sum to rtt"
          (Topology.rtt_ms g i j)
          (Topology.owd_ms g i j +. Topology.owd_ms g j i)
      end
    done
  done

let test_topology_build_network () =
  let engine = Engine.create () in
  let net =
    Topology.make_net engine Topology.globe ~placement:[| "VA"; "WA"; "VA" |]
  in
  (* VA->WA link has ~the matrix OWD; VA->VA (co-located) is local. *)
  let wan = Fifo_net.link net ~src:0 ~dst:1 in
  let local = Fifo_net.link net ~src:0 ~dst:2 in
  check_bool "wan base near owd" true
    (abs (Link.base_owd wan - Time_ns.of_ms_f (Topology.owd_ms Topology.globe 0 1))
    < Time_ns.ms 1);
  check_bool "local sub-ms" true (Link.base_owd local < Time_ns.ms 1);
  Alcotest.(check (float 0.)) "wan loss" 1e-4 (Link.loss wan)

let () =
  Alcotest.run "net"
    [
      ( "clock",
        [
          Alcotest.test_case "perfect" `Quick test_clock_perfect;
          Alcotest.test_case "offset+drift" `Quick test_clock_offset_drift;
          Alcotest.test_case "step" `Quick test_clock_step;
          Alcotest.test_case "random bounded" `Quick test_clock_random_bounded;
        ] );
      ( "jitter",
        [
          Alcotest.test_case "non-negative" `Quick test_jitter_nonnegative;
          Alcotest.test_case "stable within window" `Quick
            test_jitter_stable_within_window;
          Alcotest.test_case "spikes exist" `Quick test_jitter_spikes_exist;
        ] );
      ( "link",
        [
          Alcotest.test_case "sample bounds" `Quick
            test_link_sample_positive_and_near_base;
          Alcotest.test_case "route change" `Quick test_link_route_change;
          Alcotest.test_case "loss penalty" `Quick test_link_loss_penalty;
        ] );
      ( "fifo_net",
        [
          Alcotest.test_case "delivers" `Quick test_net_delivers;
          Alcotest.test_case "FIFO per pair" `Quick test_net_fifo_per_pair;
          Alcotest.test_case "FIFO across jitter" `Quick test_net_fifo_across_jitter;
          Alcotest.test_case "self delivery" `Quick test_net_self_delivery;
          Alcotest.test_case "crash drops" `Quick test_net_crash_drops;
          Alcotest.test_case "crashed sender" `Quick test_net_crashed_sender_drops;
          Alcotest.test_case "local time" `Quick test_net_local_time;
          Alcotest.test_case "service queue" `Quick test_net_service_queue;
          Alcotest.test_case "service workers" `Quick test_net_service_workers_parallel;
        ] );
      ( "topology",
        [
          Alcotest.test_case "matrices" `Quick test_topology_matrices;
          Alcotest.test_case "unknown dc" `Quick test_topology_unknown_dc;
          Alcotest.test_case "asymmetry" `Quick test_topology_asymmetry;
          Alcotest.test_case "build network" `Quick test_topology_build_network;
        ] );
    ]
