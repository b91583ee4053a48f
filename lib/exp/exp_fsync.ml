open Domino_sim
open Domino_stats
module Store = Domino_store.Store

(* Disk models crossed with sync policy. The "no fsync" row is the
   pre-durability simulator (free, instant disk); the rest put the
   barrier on the commit critical path. Batched rows hold each barrier
   open for a window so concurrent writers share one flush — commit
   latency buys fewer, fatter fsyncs. *)
let disks =
  let p = Store.default_params in
  [
    ("no fsync", { p with Store.sync_latency = 0; append_latency = 0 });
    ("NVMe 40us", p);
    ("cloud 0.5ms", { p with Store.sync_latency = Time_ns.us 500 });
    ( "cloud 0.5ms, batched 1ms",
      {
        p with
        Store.sync_latency = Time_ns.us 500;
        mode = Store.Batched (Time_ns.ms 1);
      } );
    ("disk 2ms", { p with Store.sync_latency = Time_ns.ms 2 });
    ( "disk 2ms, batched 5ms",
      {
        p with
        Store.sync_latency = Time_ns.ms 2;
        mode = Store.Batched (Time_ns.ms 5);
      } );
  ]

let protocols = [ Protocols.domino_default; Protocols.Multi_paxos ]

let run ?(quick = true) ?(seed = 42L) () =
  let duration = Time_ns.sec (if quick then 8 else 20) in
  let t =
    Tablefmt.create
      ~title:
        "Fsync cost: commit latency with stable storage on the critical \
         path — NA, 3 replicas, 200 req/s per client"
      ~header:
        [ "protocol"; "disk"; "p50"; "p95"; "p99"; "fsyncs"; "recs/fsync" ]
  in
  List.iter
    (fun proto ->
      List.iter
        (fun (disk, store) ->
          let metrics = Domino_obs.Metrics.create () in
          let g =
            (Exp_common.run ~seed ~duration ~metrics ~store Exp_common.na3
               proto)
              .Domino_shard.Fabric.groups.(0)
          in
          let commit =
            Domino_smr.Observer.Recorder.commit_latency_ms
              g.Domino_shard.Fabric.recorder
          in
          let syncs =
            match Domino_obs.Metrics.find_counter metrics "store.syncs" with
            | Some c -> Domino_obs.Metrics.counter_value c
            | None -> 0
          in
          Tablefmt.add_row t
            [
              Protocols.name proto;
              disk;
              Tablefmt.cell_ms (Summary.percentile commit 50.);
              Tablefmt.cell_ms (Summary.percentile commit 95.);
              Tablefmt.cell_ms (Summary.percentile commit 99.);
              string_of_int syncs;
              (if syncs = 0 then "-"
               else
                 Printf.sprintf "%.1f"
                   (float_of_int g.Domino_shard.Fabric.sync_writes
                   /. float_of_int syncs));
            ])
        disks)
    protocols;
  t
