open Domino_sim
open Domino_stats

let delays_ms quick =
  if quick then [ 0; 2; 8; 24; 36 ] else [ 0; 1; 2; 4; 8; 12; 16; 24; 36 ]

let duration quick = if quick then Time_ns.sec 12 else Time_ns.sec 30

let run ?(quick = true) ?(seed = 42L) () =
  let t =
    Tablefmt.create
      ~title:
        "Figure 11: Domino execution latency (ms) vs additional delay, \
         Globe (paper: high at 0, minimal near 8ms, then grows ~1ms/ms)"
      ~header:[ "additional delay"; "p5"; "p50"; "p95" ]
  in
  let cells =
    List.map
      (fun delay_ms ->
        ( Exp_common.globe3,
          Protocols.Domino
            {
              additional_delay = Time_ns.ms delay_ms;
              percentile = 95.;
              every_replica_learns = false;
              adaptive = false;
            } ))
      (delays_ms quick)
  in
  let results =
    Exp_common.run_sweep ~runs:1 ~seed ~duration:(duration quick) cells
  in
  List.iter2
    (fun delay_ms (_, exec) ->
      Tablefmt.add_row t
        [
          Printf.sprintf "+%dms" delay_ms;
          Tablefmt.cell_ms (Summary.percentile exec 5.);
          Tablefmt.cell_ms (Summary.percentile exec 50.);
          Tablefmt.cell_ms (Summary.percentile exec 95.);
        ])
    (delays_ms quick) results;
  t
