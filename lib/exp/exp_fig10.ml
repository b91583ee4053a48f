open Domino_sim
open Domino_stats

let duration quick = if quick then Time_ns.sec 12 else Time_ns.sec 30

let runs quick = if quick then 1 else 3

let protocols =
  [
    ("Domino-8ms", Protocols.domino_exec);
    ("EPaxos", Protocols.Epaxos);
    ("Mencius", Protocols.Mencius);
    ("Multi-Paxos", Protocols.Multi_paxos);
  ]

let run ?(quick = true) ?(seed = 42L) ~alpha () =
  let t =
    Tablefmt.create
      ~title:
        (Printf.sprintf
           "Figure 10%s: execution latency, Globe, Zipf alpha=%.2f"
           (if alpha < 0.9 then "a" else "b")
           alpha)
      ~header:[ "protocol"; "p25"; "p50"; "p95"; "p99" ]
  in
  let results =
    Exp_common.run_sweep ~runs:(runs quick) ~seed ~alpha
      ~duration:(duration quick)
      (List.map (fun (_, proto) -> (Exp_common.globe3, proto)) protocols)
  in
  List.iter2
    (fun (name, _) (_, exec) ->
      Tablefmt.add_row t
        [
          name;
          Tablefmt.cell_ms (Summary.percentile exec 25.);
          Tablefmt.cell_ms (Summary.percentile exec 50.);
          Tablefmt.cell_ms (Summary.percentile exec 95.);
          Tablefmt.cell_ms (Summary.percentile exec 99.);
        ])
    protocols results;
  t
