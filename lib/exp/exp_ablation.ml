open Domino_sim
open Domino_smr
open Domino_stats

let variants =
  let mk ?(delay = 0) ?(pct = 95.) ?(learn = false) ?(adaptive = false) () =
    Protocols.Domino
      {
        additional_delay = Time_ns.ms delay;
        percentile = pct;
        every_replica_learns = learn;
        adaptive;
      }
  in
  [
    ("baseline (0ms, p95)", mk ());
    ("+8ms delay", mk ~delay:8 ());
    ("adaptive feedback", mk ~adaptive:true ());
    ("every replica learns (+8ms)", mk ~delay:8 ~learn:true ());
    ("p50 estimates", mk ~pct:50. ());
    ("p99 estimates", mk ~pct:99. ());
  ]

let run ?(quick = true) ?(seed = 42L) () =
  let duration = if quick then Time_ns.sec 12 else Time_ns.sec 30 in
  let t =
    Tablefmt.create
      ~title:
        "Ablation: Domino design knobs, Globe deployment (same seed and \
         workload for every variant)"
      ~header:
        [
          "variant"; "commit p50"; "commit p99"; "exec p50"; "exec p95";
          "slow paths";
        ]
  in
  let results =
    Domino_par.Par.map_list
      (fun (_, proto) ->
        (Exp_common.run ~seed ~duration Exp_common.globe3 proto)
          .Domino_shard.Fabric.groups.(0))
      variants
  in
  List.iter2
    (fun (name, _) (r : Domino_shard.Fabric.group_result) ->
      let commit = Observer.Recorder.commit_latency_ms r.recorder in
      let exec = Observer.Recorder.exec_latency_ms r.recorder in
      let total = r.fast_commits + r.slow_commits in
      Tablefmt.add_row t
        [
          name;
          Tablefmt.cell_ms (Summary.percentile commit 50.);
          Tablefmt.cell_ms (Summary.percentile commit 99.);
          Tablefmt.cell_ms (Summary.percentile exec 50.);
          Tablefmt.cell_ms (Summary.percentile exec 95.);
          (if total = 0 then "-"
           else
             Printf.sprintf "%d/%d (%.1f%%)" r.slow_commits total
               (100. *. float_of_int r.slow_commits /. float_of_int total));
        ])
    variants results;
  t
