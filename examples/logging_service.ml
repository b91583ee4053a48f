(* A geo-replicated logging service — the paper's motivating workload.

   Logging systems append state-changing records with no return value:
   the client only needs the *commit* (ordering durable), while
   execution happens asynchronously. This example runs the same
   append-only workload against Domino and Multi-Paxos side by side,
   tuned the way §5.4/§7.2.3 recommends for Domino (8ms additional
   delay to keep the slow path rare), and prints what the operator
   would see on a latency dashboard: commit latency per region, plus
   the commit/execution gap.

     dune exec examples/logging_service.exe *)

open Domino_sim
open Domino_smr
open Domino_exp

let run name proto =
  let g =
    (Exp_common.run ~seed:99L ~rate:100. ~duration:(Time_ns.sec 10)
       ~measure_from:(Time_ns.sec 2) ~measure_until:(Time_ns.sec 9)
       Exp_common.globe3 proto)
      .Domino_shard.Fabric.groups.(0)
  in
  let commit = Observer.Recorder.commit_latency_ms g.recorder in
  let exec = Observer.Recorder.exec_latency_ms g.recorder in
  Format.printf "%-14s commit p50 %6.1fms  p95 %6.1fms  p99 %6.1fms@." name
    (Domino_stats.Summary.median commit)
    (Domino_stats.Summary.percentile commit 95.)
    (Domino_stats.Summary.percentile commit 99.);
  Format.printf "%-14s exec   p50 %6.1fms  p95 %6.1fms   (async, masked)@."
    ""
    (Domino_stats.Summary.median exec)
    (Domino_stats.Summary.percentile exec 95.);
  g

let () =
  Format.printf
    "Append-only log, 3 replicas (WA/PR/NSW), appenders in 6 regions, \
     100 appends/s each:@.@.";
  let d = run "Domino (+8ms)" Protocols.domino_exec in
  let stat k =
    Option.value ~default:0 (List.assoc_opt k d.Domino_shard.Fabric.extra)
  in
  Format.printf
    "               fast-path appends: %d, slow: %d, conflicts: %d@.@."
    (stat "dfp_fast_decisions") (stat "dfp_slow_decisions")
    (stat "dfp_conflicts");
  let _ = run "Multi-Paxos" Protocols.Multi_paxos in
  Format.printf
    "@.The log client blocks only on commit; Domino commits an append in \
     one WAN roundtrip@.from the closest supermajority, while Multi-Paxos \
     detours through the leader.@."
