(* Geo-replication: the paper's headline scenario.

   A globally distributed service keeps three replicas (Washington,
   Paris, Sydney) and serves application servers in six regions. Each
   client library measures its own network position and independently
   picks DFP (one-roundtrip Fast Paxos) or DM (leader-based) per
   request — the co-located clients use DM, the distant ones use DFP.

     dune exec examples/geo_replication.exe *)

open Domino_sim
open Domino_net
open Domino_smr
open Domino_kv
open Domino_core

let () =
  let engine = Engine.create ~seed:42L () in
  let replica_dcs = [ "WA"; "PR"; "NSW" ] in
  let client_dcs = [ "VA"; "WA"; "PR"; "NSW"; "SG"; "HK" ] in
  let placement = Array.of_list (replica_dcs @ client_dcs) in
  let make_net ~classify:_ ~op_of:_ =
    Topology.make_net engine Topology.globe ~placement
  in

  let recorder = Observer.Recorder.create () in
  (* Measure after a 2s warm-up, like the paper discards run edges. *)
  Observer.Recorder.start_measuring recorder (Time_ns.sec 2);
  let observer = Observer.Recorder.observer recorder in
  let replicas = [| 0; 1; 2 |] in
  let env =
    Durable.standalone engine ~replicas ~observer { Durable.make = make_net }
  in
  let domino = Domino.create env (Config.make ~replicas ()) in

  (* Each region runs an application server sending 200 writes/s over
     a million-key space (the paper's workload). *)
  let clients = List.init (List.length client_dcs) (fun i -> 3 + i) in
  let _workload =
    Workload.create ~rate:200. ~clients ~duration:(Time_ns.sec 10)
      ~submit:(Domino.submit domino) engine
  in
  Engine.run ~until:(Time_ns.sec 13) engine;

  Format.printf "Per-region commit latency (10s run):@.";
  List.iteri
    (fun i dc ->
      let node = 3 + i in
      let s = Observer.Recorder.commit_latency_of_client_ms recorder node in
      let choice =
        match Client.last_choice (Domino.client domino node) with
        | Some c -> Format.asprintf "%a" Domino_measure.Estimator.pp_choice c
        | None -> "-"
      in
      Format.printf "  %-4s p50 %6.1fms  p95 %6.1fms   (last choice: %s)@." dc
        (Domino_stats.Summary.median s)
        (Domino_stats.Summary.percentile s 95.)
        choice)
    client_dcs;
  let stats = Domino.stats domino in
  Format.printf
    "@.overall: %d commits; DFP/DM requests %d/%d; fast-path rate %.1f%%@."
    (Observer.Recorder.committed recorder)
    stats.Domino.dfp_submissions stats.Domino.dm_submissions
    (100.
    *. float_of_int stats.Domino.dfp_fast_decisions
    /. float_of_int
         (max 1 (stats.Domino.dfp_fast_decisions + stats.Domino.dfp_slow_decisions)))
