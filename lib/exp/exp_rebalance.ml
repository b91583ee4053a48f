open Domino_sim
open Domino_obs
open Domino_stats
open Domino_shard

(* The live-rebalancing experiment (beyond the paper): a 2-group Domino
   fabric over NA with RANGE partitioning, so the Zipf workload's hot
   keys (the smallest ids) all land in slot 0 on group 0. Three modes:

   - stay:    nothing moves — the skewed baseline;
   - planned: the fault plan migrates slot 0 to group 1 mid-run;
   - auto:    the hot-shard detector triggers the migrations itself.

   Each mode runs under an online timeline; Dip.analyze measures the
   migration exactly like an outage — pre-freeze baseline RPS, dip
   depth while the hot slot's submits queue, and time-to-recover after
   the cutover releases them to the new owner. *)

let replica_dcs = [| "WA"; "VA"; "QC" |]

(* Keyspace size matches the workload generator's default million keys,
   so the 16 range slots tile exactly the sampled id space. *)
let workload_keys = 1_000_000

let slots_spec = Slots.Range { slots = 16; keys = workload_keys }

let config_for ~proto ~params () =
  let client_dcs = Exp_common.na3.Exp_common.client_dcs in
  let leaders =
    Placement.spread_leaders Domino_net.Topology.na ~replica_dcs ~client_dcs
      ~groups:2
  in
  {
    Fabric.topo = Domino_net.Topology.na;
    client_dcs;
    groups =
      Array.init 2 (fun k ->
          {
            Fabric.replica_dcs;
            leader = leaders.(k);
            protocol = Protocols.resolve proto;
            params;
          });
    slots = slots_spec;
  }

let config () =
  config_for ~proto:Protocols.domino_default
    ~params:(Protocols.params Protocols.domino_default)
    ()

let plan_exn text =
  match Domino_fault.Plan.parse text with
  | Ok p -> p
  | Error e -> invalid_arg (Printf.sprintf "Exp_rebalance plan: %s" e)

let planned_plan = "at 3s migrate slot=0 from=0 to=1\n"

type mode = Stay | Planned | Auto

let mode_name = function
  | Stay -> "stay"
  | Planned -> "planned"
  | Auto -> "auto"

(* Everything a table row needs, extracted inside the parallel task so
   only plain data crosses domains. *)
type cell = {
  mode : string;
  aggregate : Summary.t;
  routed : int array;
  hot_flags : int array;
  migrations : Migrate.outcome list;
  reports : Dip.report list;
}

let run_cell ~seed ~duration mode =
  let agg = Timeline.create ~group_resolver:Slots.resolver_of_mark () in
  let faults =
    match mode with Planned -> Some (plan_exn planned_plan) | _ -> None
  in
  let r =
    Fabric.run ~seed ~duration ~timeline:agg ?faults
      ~auto_rebalance:(mode = Auto) (config ())
  in
  let aggregate =
    Array.fold_left
      (fun acc (_, s) -> Summary.merge acc s)
      (Summary.create ()) r.Fabric.client_commit_ms
  in
  {
    mode = mode_name mode;
    aggregate;
    routed =
      Array.map (fun (g : Fabric.group_result) -> g.Fabric.routed)
        r.Fabric.groups;
    hot_flags = r.Fabric.hot_flags;
    migrations = r.Fabric.migrations;
    reports = Dip.analyze (Timeline.finish agg);
  }

let run ?(quick = true) ?(seed = 42L) () =
  let duration = Time_ns.sec (if quick then 8 else 20) in
  let cells =
    Domino_par.Par.map_list
      (fun mode -> run_cell ~seed ~duration mode)
      [ Stay; Planned; Auto ]
  in
  let s =
    Tablefmt.create
      ~title:
        "Rebalance: 2 Domino groups, NA, range slots (Zipf hot keys on \
         g0/slot 0), 100 ms windows"
      ~header:[ "mode"; "p50"; "p99"; "routed g0/g1"; "hot windows"; "moves" ]
  in
  List.iter
    (fun c ->
      Tablefmt.add_row s
        [
          c.mode;
          Tablefmt.cell_ms (Summary.percentile c.aggregate 50.);
          Tablefmt.cell_ms (Summary.percentile c.aggregate 99.);
          Printf.sprintf "%d/%d" c.routed.(0) c.routed.(1);
          Printf.sprintf "g0:%d g1:%d" c.hot_flags.(0) c.hot_flags.(1);
          string_of_int (List.length c.migrations);
        ])
    cells;
  let m =
    Tablefmt.create ~title:"Rebalance: slot migrations"
      ~header:
        [ "mode"; "slot"; "move"; "records"; "queued"; "span"; "outcome" ]
  in
  List.iter
    (fun c ->
      List.iter
        (fun (o : Migrate.outcome) ->
          Tablefmt.add_row m
            [
              c.mode;
              string_of_int o.Migrate.slot;
              Printf.sprintf "g%d>g%d" o.Migrate.from_g o.Migrate.to_g;
              string_of_int o.Migrate.records;
              string_of_int o.Migrate.queued;
              Tablefmt.cell_ms
                (Time_ns.to_ms_f
                   (Time_ns.diff o.Migrate.finished_at o.Migrate.started_at));
              (if o.Migrate.aborted then "abort" else "done");
            ])
        c.migrations)
    cells;
  let d =
    Tablefmt.create
      ~title:"Rebalance: throughput dip per migration (Dip.analyze)"
      ~header:([ "mode"; "fault" ] @ Dip.header)
  in
  List.iter
    (fun c ->
      List.iter
        (fun (r : Dip.report) ->
          Tablefmt.add_row d (c.mode :: r.Dip.fault :: Dip.cells r))
        c.reports)
    cells;
  [ s; m; d ]

(* The CLI/CI smoke target: a 6-second 2-group run that migrates the
   hot slot at 3 s, journaled and optionally fed to an online
   timeline. *)
let smoke_journal ~seed ?faults ?timeline ?(journal = Journal.create ()) () =
  let faults =
    match faults with Some f -> f | None -> plan_exn planned_plan
  in
  ignore
    (Fabric.run ~seed ~duration:(Time_ns.sec 6) ~journal ?timeline ~faults
       (config ()));
  journal

(* The chaos suite's 2-group runner: the same layout as the experiment
   but protocol-parametric, so migration scenarios (migrate during a
   partition, source leader crash mid-migration) cross Domino with the
   other protocols. Mirrors [Exp_common.run]'s fault posture: Domino
   arms the in-protocol resend rule of the shared [Retry] loop;
   everyone else gets the fabric's generic resend. *)
let chaos_journal ~seed ~faults ?(proto = Exp_common.domino_default)
    ?(duration = Time_ns.sec 6) ?timeline () =
  let j = Journal.create () in
  ignore
    (Fabric.run ~seed ~rate:100. ~duration ~journal:j ?timeline ~faults
       (config_for ~proto ~params:(Protocols.params_under_faults proto) ()));
  j

(* A migration-heavy multi-run sweep for the determinism check, on the
   same [Exp_common.fan_out] as [Exp_common.run_sweep]: journal and
   timeline are byte-identical for every [jobs], now covering mid-run
   epoch bumps. *)
let sweep_journal ?(runs = 2) ?(seed = 42L) ?jobs ?timeline () =
  let journal = Journal.create () in
  ignore
    (Exp_common.fan_out ?jobs ~journal ?timeline
       ~label:(fun ri ->
         Printf.sprintf "run=%d seed=%Ld" ri (Exp_common.seed_for seed ri))
       (fun ri ~journal ~timeline ->
         ignore
           (Fabric.run ~seed:(Exp_common.seed_for seed ri)
              ~duration:(Time_ns.sec 4) ?journal ?timeline
              ~faults:(plan_exn "at 1500ms migrate slot=0 from=0 to=1\n")
              (config ())))
       runs
      : unit array);
  journal
