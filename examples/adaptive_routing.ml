(* Adaptive routing: Domino reacting to a route change (paper §7.3).

   Three replicas and one client sit in a cluster with 30ms RTTs. At
   t=10s the client's path to replica R0 degrades to 50ms, at t=20s to
   70ms. Watch the client's commit latency: it rides DFP at 30 then
   50ms, and when DFP stops being the cheapest option it switches to
   DM through a different replica (60ms) — no reconfiguration, no
   operator, just probing.

     dune exec examples/adaptive_routing.exe *)

open Domino_sim
open Domino_net
open Domino_smr
open Domino_core

let () =
  let engine = Engine.create ~seed:3L () in
  let n = 4 in
  (* The network Domino runs on: 15 ms one-way links, and the two
     scheduled route changes on the client's path to R0. *)
  let make_net ~classify:_ ~op_of:_ =
    let net = Fifo_net.create engine ~n in
    let rng = Engine.rng engine in
    for src = 0 to n - 1 do
      for dst = 0 to n - 1 do
        if src <> dst then
          Fifo_net.set_link net ~src ~dst
            (Link.create ~jitter:Jitter.calm_lan ~loss:0.
               ~base_owd:(Time_ns.ms 15) rng)
      done
    done;
    let set_rtt a b ms =
      Link.set_base_owd (Fifo_net.link net ~src:a ~dst:b) (Time_ns.of_ms_f (ms /. 2.));
      Link.set_base_owd (Fifo_net.link net ~src:b ~dst:a) (Time_ns.of_ms_f (ms /. 2.))
    in
    ignore (Engine.schedule_at engine ~at:(Time_ns.sec 10) (fun () ->
        print_endline "-- route change: client<->R0 now 50ms --";
        set_rtt 3 0 50.));
    ignore (Engine.schedule_at engine ~at:(Time_ns.sec 20) (fun () ->
        print_endline "-- route change: client<->R0 now 70ms --";
        set_rtt 3 0 70.));
    net
  in

  let recorder = Observer.Recorder.create () in
  let observer = Observer.Recorder.observer recorder in
  let replicas = [| 0; 1; 2 |] in
  let env =
    Durable.standalone engine ~replicas ~observer { Durable.make = make_net }
  in
  let domino = Domino.create env (Config.make ~replicas ()) in

  (* One request per second; record which subsystem each request
     actually went through (ground truth from the client's counters). *)
  let seq = ref 0 in
  let paths = Hashtbl.create 32 in
  ignore
    (Engine.every engine ~interval:(Time_ns.sec 1) (fun () ->
         let op =
           Op.make ~client:3 ~seq:!seq ~key:!seq ~value:(Int64.of_int !seq)
         in
         incr seq;
         let client = Domino.client domino 3 in
         let dfp_before = Client.dfp_submissions client in
         Domino.submit domino op;
         let path =
           if Client.dfp_submissions client > dfp_before then "DFP" else "DM"
         in
         Hashtbl.replace paths (Engine.now engine) path));
  Engine.run ~until:(Time_ns.sec 30) engine;

  print_endline "t(s)  commit latency  path";
  List.iter
    (fun (sent, lat) ->
      if Time_ns.to_sec_f sent > 1.5 then begin
        let path =
          match Hashtbl.find_opt paths sent with Some p -> p | None -> "-"
        in
        Printf.printf "%5.1f  %8.1fms      %s\n" (Time_ns.to_sec_f sent) lat path
      end)
    (Observer.Recorder.latency_series recorder)
