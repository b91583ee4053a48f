open Domino_sim
open Domino_net
open Domino_smr
open Domino_obs

type setting = {
  topo : Topology.t;
  replica_dcs : string array;
  client_dcs : string array;
  leader : int;
}

let na3 =
  {
    topo = Topology.na;
    replica_dcs = [| "WA"; "VA"; "QC" |];
    client_dcs =
      [| "VA"; "TX"; "CA"; "IA"; "WA"; "WY"; "IL"; "QC"; "TRT" |];
    leader = 0;
  }

let na5 =
  {
    topo = Topology.na;
    replica_dcs = [| "WA"; "VA"; "QC"; "CA"; "TX" |];
    client_dcs =
      [| "VA"; "TX"; "CA"; "IA"; "WA"; "WY"; "IL"; "QC"; "TRT" |];
    leader = 0;
  }

let globe3 =
  {
    topo = Topology.globe;
    replica_dcs = [| "WA"; "PR"; "NSW" |];
    client_dcs = [| "VA"; "WA"; "PR"; "NSW"; "SG"; "HK" |];
    leader = 0;
  }

let fig7_single =
  {
    topo = Topology.na;
    replica_dcs = [| "WA"; "VA"; "QC" |];
    client_dcs = [| "IA" |];
    leader = 0;
  }

let fig7_double =
  {
    topo = Topology.na;
    replica_dcs = [| "WA"; "VA"; "QC" |];
    client_dcs = [| "IA"; "WA" |];
    leader = 0;
  }

let closest_replica setting ~client_dc =
  Domino_shard.Placement.closest_replica setting.topo
    ~replica_dcs:setting.replica_dcs ~client_dc

(* [run] is the degenerate one-group case of the shard fabric: empty
   metric/journal prefix, no composition marks, no hot-shard detector —
   byte-identical (journal and metrics JSON) to the flat harness this
   module used to implement inline. *)
let run ?seed ?rate ?alpha ?duration ?measure_from ?measure_until ?metrics
    ?journal ?timeline ?faults ?store setting proto =
  let params =
    match faults with
    | Some _ -> Protocols.params_under_faults proto
    | None -> Protocols.params proto
  in
  let config =
    {
      Domino_shard.Fabric.topo = setting.topo;
      client_dcs = setting.client_dcs;
      groups =
        [|
          {
            Domino_shard.Fabric.replica_dcs = setting.replica_dcs;
            leader = setting.leader;
            protocol = Protocols.resolve proto;
            params;
          };
        |];
      slots = Domino_shard.Slots.Hash { slots = 1 };
    }
  in
  Domino_shard.Fabric.run ?seed ?rate ?alpha ?duration ?measure_from
    ?measure_until ?metrics ?journal ?timeline ?faults ?store config

(* --- parallel sweep machinery ---

   Each run is fully isolated (its own engine, RNG, net, metrics), so
   independent (seed, setting, protocol) runs fan out across domains
   via Par.map; results come back in task-index order and merging
   happens sequentially in that fixed order, making output at any
   [jobs] byte-identical to [jobs = 1]. *)

let seed_for base i = Int64.add base (Int64.of_int (i * 1_000_003))

let run_latencies ~seed ?rate ?alpha ?duration ?journal ?timeline ?faults
    setting proto =
  let r =
    run ~seed ?rate ?alpha ?duration ?journal ?timeline ?faults setting proto
  in
  let recorder =
    r.Domino_shard.Fabric.groups.(0).Domino_shard.Fabric.recorder
  in
  ( Observer.Recorder.commit_latency_ms recorder,
    Observer.Recorder.exec_latency_ms recorder )

let merge_pairs pairs =
  Array.fold_left
    (fun (c, e) (rc, re) ->
      (Domino_stats.Summary.merge c rc, Domino_stats.Summary.merge e re))
    (Domino_stats.Summary.create (), Domino_stats.Summary.create ())
    pairs

let fan_out ?jobs ?journal ?timeline ~label task n =
  let mark i = Journal.Mark { label = label i; at = Time_ns.zero } in
  let results =
    Domino_par.Par.mapi ?jobs
      (fun i () ->
        (* Each task journals into its own ring; merging happens below,
           sequentially and in task-index order, so the combined stream
           is byte-identical for every [jobs]. *)
        let j =
          Option.map
            (fun parent -> Journal.create ~capacity:(Journal.capacity parent) ())
            journal
        in
        (* Likewise each task aggregates its own timeline, which comes
           back as plain data ([finish]) and is absorbed into the
           caller's collector below, sequentially in task order — never
           one mutable aggregator shared across domains. Feeding the
           task's mark first gives its segment the same label offline
           replay of the merged journal would produce. *)
        let tl =
          Option.map
            (fun parent ->
              let agg =
                Timeline.create ~window:(Timeline.window parent)
                  ~group_resolver:Domino_shard.Slots.resolver_of_mark ()
              in
              Timeline.feed agg (mark i);
              agg)
            timeline
        in
        let r = task i ~journal:j ~timeline:tl in
        (r, j, Option.map Timeline.finish tl))
      (Array.make n ())
  in
  Option.iter
    (fun parent ->
      Array.iteri
        (fun i (_, j, _) ->
          Journal.record parent (mark i);
          Option.iter (Journal.append parent) j)
        results)
    journal;
  Option.iter
    (fun parent ->
      Array.iter
        (fun (_, _, tl) ->
          Option.iter (fun tl -> Timeline.absorb parent ~label:"" tl) tl)
        results)
    timeline;
  Array.map (fun (r, _, _) -> r) results

let run_sweep ?(runs = 1) ?(seed = 42L) ?rate ?alpha ?duration ?jobs ?journal
    ?timeline ?faults cells =
  let cells = Array.of_list cells in
  let n_cells = Array.length cells in
  (* Flatten to (cell, run) tasks so cores stay busy even when one
     cell's protocol simulates slower than the others. *)
  let results =
    fan_out ?jobs ?journal ?timeline
      ~label:(fun t ->
        let ri = t mod runs in
        Printf.sprintf "cell=%d run=%d seed=%Ld" (t / runs) ri
          (seed_for seed ri))
      (fun t ~journal ~timeline ->
        let setting, proto = cells.(t / runs) in
        run_latencies ~seed:(seed_for seed (t mod runs)) ?rate ?alpha
          ?duration ?journal ?timeline ?faults setting proto)
      (n_cells * runs)
  in
  List.init n_cells (fun ci -> merge_pairs (Array.sub results (ci * runs) runs))
