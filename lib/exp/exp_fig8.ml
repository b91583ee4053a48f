open Domino_sim
open Domino_stats

type variant = Na3 | Na5 | Globe

let setting = function
  | Na3 -> Exp_common.na3
  | Na5 -> Exp_common.na5
  | Globe -> Exp_common.globe3

let name = function
  | Na3 -> "NA, 3 replicas (Fig 8a)"
  | Na5 -> "NA, 5 replicas (Fig 8b)"
  | Globe -> "Globe, 3 replicas (Fig 8c)"

(* Paper reference (p50, p95) in ms where stated; "-" where the figure
   gives only relative claims. *)
let paper_reference variant proto =
  match (variant, proto) with
  | Na3, "Domino" -> "48 / 70"
  | Na3, "EPaxos" -> "64 / 87"
  | Na3, "Mencius" -> "75 / 94"
  | Na3, "Multi-Paxos" -> "107 / 134"
  | Globe, "Domino" -> "p95 ~86ms below EPaxos"
  | _ -> "-"

let duration quick = if quick then Time_ns.sec 12 else Time_ns.sec 30

let runs quick = if quick then 1 else 3

let protocols =
  [
    Protocols.domino_default;
    Protocols.Epaxos;
    Protocols.Mencius;
    Protocols.Multi_paxos;
  ]

let run ?(quick = true) ?(seed = 42L) variant () =
  let s = setting variant in
  let t =
    Tablefmt.create
      ~title:
        (Printf.sprintf
           "Figure 8: commit latency, %s — one 200 req/s client per \
            datacenter"
           (name variant))
      ~header:[ "protocol"; "p50"; "p95"; "p99"; "paper (p50 / p95)" ]
  in
  let results =
    Exp_common.run_sweep ~runs:(runs quick) ~seed ~duration:(duration quick)
      (List.map (fun proto -> (s, proto)) protocols)
  in
  List.iter2
    (fun proto (commit, _) ->
      let pname = Protocols.name proto in
      Tablefmt.add_row t
        [
          pname;
          Tablefmt.cell_ms (Summary.percentile commit 50.);
          Tablefmt.cell_ms (Summary.percentile commit 95.);
          Tablefmt.cell_ms (Summary.percentile commit 99.);
          paper_reference variant pname;
        ])
    protocols results;
  t

(* A short journaled sweep of the figure's four protocols: the CLI's
   [experiment --journal-out/--perfetto-out] smoke target and the CI
   determinism check. Two simulated seconds keep every event of all
   four runs inside one default-capacity ring. *)
let smoke_journal ~seed ?faults ?timeline
    ?(journal = Domino_obs.Journal.create ()) variant =
  ignore
    (Exp_common.run_sweep ~runs:1 ~seed ~duration:(Time_ns.sec 2) ~journal
       ?timeline ?faults
       (List.map (fun proto -> (setting variant, proto)) protocols));
  journal
