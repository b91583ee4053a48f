open Domino_sim
open Domino_smr
open Domino_stats

let duration quick = if quick then Time_ns.sec 12 else Time_ns.sec 30

let measure quick = (Time_ns.sec 3, duration quick - Time_ns.sec 2)

let run_case ~quick ~seed setting proto =
  let mfrom, muntil = measure quick in
  (Exp_common.run ~seed ~duration:(duration quick) ~measure_from:mfrom
     ~measure_until:muntil setting proto)
    .Domino_shard.Fabric.groups.(0)

let fast_paxos_slow_fraction ?(seed = 42L) ~clients () =
  let setting =
    if clients <= 1 then Exp_common.fig7_single else Exp_common.fig7_double
  in
  let r = run_case ~quick:true ~seed setting Protocols.Fast_paxos in
  let total = r.fast_commits + r.slow_commits in
  if total = 0 then 0. else float_of_int r.slow_commits /. float_of_int total

let run ?(quick = true) ?(seed = 42L) () =
  let t =
    Tablefmt.create
      ~title:
        "Figure 7: Fast Paxos vs Multi-Paxos commit latency (replicas \
         WA/VA/QC, clients IA[, WA])"
      ~header:[ "configuration"; "paper p50"; "p50"; "p95"; "fast/slow" ]
  in
  let cases =
    [
      ("Fast Paxos, 1 client", "~38ms", Exp_common.fig7_single,
       Protocols.Fast_paxos);
      ("Multi-Paxos, 1 client", "~103ms", Exp_common.fig7_single,
       Protocols.Multi_paxos);
      ("Fast Paxos, 2 clients", "> Multi-Paxos", Exp_common.fig7_double,
       Protocols.Fast_paxos);
      ("Multi-Paxos, 2 clients", "~65/~100ms", Exp_common.fig7_double,
       Protocols.Multi_paxos);
    ]
  in
  let results =
    Domino_par.Par.map_list
      (fun (_, _, setting, proto) -> run_case ~quick ~seed setting proto)
      cases
  in
  List.iter2
    (fun (name, paper, _, _) (r : Domino_shard.Fabric.group_result) ->
      let c = Observer.Recorder.commit_latency_ms r.recorder in
      Tablefmt.add_row t
        [
          name;
          paper;
          Tablefmt.cell_ms (Summary.percentile c 50.);
          Tablefmt.cell_ms (Summary.percentile c 95.);
          Printf.sprintf "%d/%d" r.fast_commits r.slow_commits;
        ])
    cases results;
  let r = List.nth results 3 in
  (* Per-client Multi-Paxos breakdown (clients are nodes 3=IA, 4=WA). *)
  List.iter
    (fun (node, name, paper) ->
      let c = Observer.Recorder.commit_latency_of_client_ms r.recorder node in
      if not (Summary.is_empty c) then
        Tablefmt.add_row t
          [
            "  " ^ name;
            paper;
            Tablefmt.cell_ms (Summary.percentile c 50.);
            Tablefmt.cell_ms (Summary.percentile c 95.);
            "-";
          ])
    [ (3, "Multi-Paxos IA client", "~100ms"); (4, "Multi-Paxos WA client", "~65ms") ];
  t
