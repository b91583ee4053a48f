open Domino_sim
open Domino_stats
open Domino_shard

(* The shard-serving fabric experiment: one engine hosting N Domino
   groups over the NA topology, every group on the WA/VA/QC replica
   set, leaders spread across the replicas by client geography
   (Placement.spread_leaders). Sweeps shard count x client population
   and reports aggregate plus bottleneck-client commit latency; a
   second table contrasts hash vs range partitioning under the Zipf
   workload, where range sharding concentrates the hot keys on one
   group and the hot-shard detector fires. *)

let replica_dcs = [| "WA"; "VA"; "QC" |]

let base_clients = Exp_common.na3.Exp_common.client_dcs

let clients_of_pop pop =
  Array.concat (List.init pop (fun _ -> base_clients))

(* Keyspace size matches the workload generator's default million keys,
   so range slots cover exactly the sampled id space. *)
let workload_keys = 1_000_000

let config ~groups ~pop ~slots =
  let client_dcs = clients_of_pop pop in
  let leaders =
    Placement.spread_leaders Domino_net.Topology.na ~replica_dcs
      ~client_dcs ~groups
  in
  {
    Fabric.topo = Domino_net.Topology.na;
    client_dcs;
    groups =
      Array.init groups (fun k ->
          {
            Fabric.replica_dcs;
            leader = leaders.(k);
            protocol = Protocols.resolve Protocols.domino_default;
            params = Protocols.params Protocols.domino_default;
          });
    slots;
  }

let duration quick = if quick then Time_ns.sec 6 else Time_ns.sec 20

(* Everything a table row needs, extracted inside the parallel task so
   only plain data crosses domains. *)
type cell = {
  groups : int;
  pop : int;
  partition : string;
  aggregate : Summary.t;
  bottleneck_dc : string;
  bottleneck : Summary.t;
  per_group : (string * string * int * Summary.t) array;
      (** (label, leader dc, routed ops, commit latency) *)
  hot_flags : int array;
  routed_spread : int * int;  (** (min, max) ops routed per group *)
}

let run_cell ~seed ~quick (groups, pop, slots, partition) =
  let r = Fabric.run ~seed ~duration:(duration quick) (config ~groups ~pop ~slots) in
  let aggregate =
    Array.fold_left
      (fun acc (_, s) -> Summary.merge acc s)
      (Summary.create ()) r.Fabric.client_commit_ms
  in
  let bottleneck_dc, bottleneck =
    Array.fold_left
      (fun (bdc, bs) (dc, s) ->
        if Summary.count s > 0
           && (Summary.count bs = 0
              || Summary.percentile s 99. > Summary.percentile bs 99.)
        then (dc, s)
        else (bdc, bs))
      ("-", Summary.create ())
      r.Fabric.client_commit_ms
  in
  let leaders =
    Placement.spread_leaders Domino_net.Topology.na ~replica_dcs
      ~client_dcs:(clients_of_pop pop) ~groups
  in
  let per_group =
    Array.mapi
      (fun k (g : Fabric.group_result) ->
        ( Printf.sprintf "g%d" k,
          replica_dcs.(leaders.(k)),
          g.Fabric.routed,
          Domino_smr.Observer.Recorder.commit_latency_ms g.Fabric.recorder ))
      r.Fabric.groups
  in
  let routed = Array.map (fun (g : Fabric.group_result) -> g.Fabric.routed) r.Fabric.groups in
  let mn = Array.fold_left Stdlib.min routed.(0) routed
  and mx = Array.fold_left Stdlib.max routed.(0) routed in
  {
    groups;
    pop;
    partition;
    aggregate;
    bottleneck_dc;
    bottleneck;
    per_group;
    hot_flags = r.Fabric.hot_flags;
    routed_spread = (mn, mx);
  }

let hash_slots groups = Slots.Hash { slots = Stdlib.max 16 groups }

let sweep_cells =
  List.concat_map
    (fun groups ->
      List.map
        (fun pop -> (groups, pop, hash_slots groups, "hash"))
        [ 1; 2 ])
    [ 1; 2; 4; 8 ]

let partition_cells =
  [
    (4, 1, hash_slots 4, "hash");
    (4, 1, Slots.Range { slots = 16; keys = workload_keys }, "range");
  ]

let cell_ms = Tablefmt.cell_ms

let hot_cell flags =
  let total = Array.fold_left ( + ) 0 flags in
  if total = 0 then "0"
  else
    String.concat " "
      (List.filteri (fun _ s -> s <> "")
         (Array.to_list
            (Array.mapi
               (fun k f -> if f > 0 then Printf.sprintf "g%d:%d" k f else "")
               flags)))

let run ?(quick = true) ?(seed = 42L) () =
  let cells =
    Domino_par.Par.map_list
      (fun c -> run_cell ~seed ~quick c)
      (sweep_cells @ partition_cells)
  in
  let sweep, partition =
    let n = List.length sweep_cells in
    (List.filteri (fun i _ -> i < n) cells, List.filteri (fun i _ -> i >= n) cells)
  in
  let t =
    Tablefmt.create
      ~title:
        "Shards: Domino groups over NA (WA/VA/QC replicas, leaders spread), \
         200 req/s per client"
      ~header:
        [
          "groups"; "clients"; "p50"; "p99"; "bottleneck"; "btl p50";
          "btl p99"; "routed min/max";
        ]
  in
  List.iter
    (fun c ->
      let mn, mx = c.routed_spread in
      Tablefmt.add_row t
        [
          string_of_int c.groups;
          string_of_int (c.pop * Array.length base_clients);
          cell_ms (Summary.percentile c.aggregate 50.);
          cell_ms (Summary.percentile c.aggregate 99.);
          c.bottleneck_dc;
          cell_ms (Summary.percentile c.bottleneck 50.);
          cell_ms (Summary.percentile c.bottleneck 99.);
          Printf.sprintf "%d/%d" mn mx;
        ])
    sweep;
  let d =
    Tablefmt.create ~title:"Shards: per-group detail"
      ~header:
        [ "groups"; "clients"; "part"; "group"; "leader"; "routed"; "p50"; "p99" ]
  in
  List.iter
    (fun c ->
      Array.iter
        (fun (label, leader_dc, routed, s) ->
          Tablefmt.add_row d
            [
              string_of_int c.groups;
              string_of_int (c.pop * Array.length base_clients);
              c.partition;
              label;
              leader_dc;
              string_of_int routed;
              cell_ms (Summary.percentile s 50.);
              cell_ms (Summary.percentile s 99.);
            ])
        c.per_group)
    cells;
  let h =
    Tablefmt.create
      ~title:
        "Shards: hash vs range partitioning, 4 groups (Zipf keys make the \
         lowest range hot)"
      ~header:[ "part"; "p50"; "p99"; "routed min/max"; "hot intervals" ]
  in
  List.iter
    (fun c ->
      let mn, mx = c.routed_spread in
      Tablefmt.add_row h
        [
          c.partition;
          cell_ms (Summary.percentile c.aggregate 50.);
          cell_ms (Summary.percentile c.aggregate 99.);
          Printf.sprintf "%d/%d" mn mx;
          hot_cell c.hot_flags;
        ])
    partition;
  [ t; d; h ]

(* The CLI/CI smoke target: a short journaled 2-group fabric run, the
   multi-group counterpart of [Exp_fig8.smoke_journal]. *)
let smoke_journal ~seed ?faults ?timeline
    ?(journal = Domino_obs.Journal.create ()) () =
  ignore
    (Fabric.run ~seed ~duration:(Time_ns.sec 2) ~journal ?timeline ?faults
       (config ~groups:2 ~pop:1 ~slots:(hash_slots 2)));
  journal
