open Domino_sim
open Domino_stats

let percentiles quick = if quick then [ 50.; 90.; 95.; 99. ] else [ 50.; 75.; 90.; 95.; 99. ]

let delays_ms quick = if quick then [ 0; 2; 8; 16 ] else [ 0; 1; 2; 4; 8; 12; 16 ]

let duration quick = if quick then Time_ns.sec 12 else Time_ns.sec 30

let references = [ Protocols.Mencius; Protocols.Epaxos; Protocols.Multi_paxos ]

let run ?(quick = true) ?(seed = 42L) () =
  let d = duration quick in
  let t =
    Tablefmt.create
      ~title:
        "Figure 9: Domino p99 commit latency (ms) vs percentile x \
         additional delay, Globe (paper: decreasing in both; baselines \
         shown for reference)"
      ~header:
        ("percentile"
        :: List.map (fun ms -> Printf.sprintf "+%dms" ms) (delays_ms quick))
  in
  (* One flat sweep: the whole percentile x delay grid plus the three
     reference baselines, in row order. *)
  let grid =
    List.concat_map
      (fun pct ->
        List.map
          (fun delay_ms ->
            Protocols.Domino
              {
                additional_delay = Time_ns.ms delay_ms;
                percentile = pct;
                every_replica_learns = false;
                adaptive = false;
              })
          (delays_ms quick))
      (percentiles quick)
  in
  let results =
    Exp_common.run_sweep ~runs:1 ~seed ~duration:d
      (List.map (fun p -> (Exp_common.globe3, p)) (grid @ references))
  in
  let p99s = List.map (fun (commit, _) -> Summary.percentile commit 99.) results in
  let width = List.length (delays_ms quick) in
  List.iteri
    (fun i pct ->
      let row =
        List.init width (fun j -> Tablefmt.cell_ms (List.nth p99s ((i * width) + j)))
      in
      Tablefmt.add_row t (Printf.sprintf "p%.0f" pct :: row))
    (percentiles quick);
  let n_grid = List.length grid in
  List.iteri
    (fun i proto ->
      Tablefmt.add_row t
        [
          Protocols.name proto ^ " (reference)";
          Tablefmt.cell_ms (List.nth p99s (n_grid + i));
        ])
    references;
  t
