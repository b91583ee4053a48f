open Domino_sim
open Domino_net
open Domino_core
open Domino_stats

let run () =
  let engine = Engine.create ~seed:31L () in
  let placement = [| "WA"; "PR"; "NSW"; "VA" |] in
  let net = Topology.make_net engine Topology.globe ~placement () in
  let cfg = Config.make ~replicas:[| 0; 1; 2 |] () in
  let d = Domino.create ~net ~cfg ~observer:Domino_smr.Observer.null () in
  let _w =
    Domino_kv.Workload.create ~rate:200. ~clients:[ 3 ]
      ~duration:(Time_ns.sec 10) ~submit:(Domino.submit d) engine
  in
  Engine.run ~until:(Time_ns.sec 12) engine;
  let t =
    Tablefmt.create
      ~title:
        "Section 6: decided log after 12s, 10s of them at 200 req/s (1e9 \
         positions/s; a lane's no-op run is one integer)"
      ~header:[ "replica"; "decisions held"; "DFP positions covered" ]
  in
  for i = 0 to 2 do
    let s = Replica.storage_stats (Domino.replica d i) in
    Tablefmt.add_row t
      [
        Printf.sprintf "r%d" i;
        string_of_int s.Replica.decisions_held;
        Printf.sprintf "%.2e" (float_of_int s.Replica.dfp_positions_covered);
      ]
  done;
  t
