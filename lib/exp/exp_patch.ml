open Domino_sim
open Domino_obs
open Domino_stats

(* Three ways to take a leader (or a whole group) through maintenance,
   scaled so the pre-event baseline has settled:

   - leader-crash: the ungraceful comparison point — kill node 0 cold,
     heal later. The dip every operator wants to avoid.
   - leader-transfer: the graceful handoff — drain node 0's duties and
     flip to node 1 without ever losing a replica.
   - roll: the full rolling patch — every node in turn is drained (if
     it leads), wiped, recovered from snapshot + log, readmitted, then
     the orchestrator dwells before the next. *)
(* Maintenance fires at 3 s, not a round 2.5 s: seed 42's Mencius run
   has a ~180 ms fault-free commit stall over [2.42 s, 2.6 s] (the
   same gap appears with no plan armed), and a maintenance event
   placed at 2.5 s would inherit that empty window as its "dip". *)
let plans =
  [
    ("leader-crash", "at 3s crash node=0\nat 4500ms recover node=0\n");
    ("leader-transfer", "at 3s transfer group=0 to=1\n");
    ("roll", "at 3s roll group=0 dwell=500ms\n");
  ]

let protocols =
  [
    Protocols.domino_default;
    Protocols.Mencius;
    Protocols.Epaxos;
    Protocols.Multi_paxos;
    Protocols.Fast_paxos;
  ]

let plan_exn name text =
  match Domino_fault.Plan.parse text with
  | Ok p -> p
  | Error e -> invalid_arg (Printf.sprintf "Exp_patch plan %s: %s" name e)

let run ?(quick = true) ?(seed = 42L) () =
  let duration = Time_ns.sec (if quick then 8 else 20) in
  let t =
    Tablefmt.create
      ~title:
        "Rolling patch: leader crash vs graceful transfer vs rolling \
         wipe-upgrade — NA, 3 replicas, 2 clients, 200 req/s each, 100 ms \
         windows"
      ~header:([ "protocol"; "plan"; "event"; "detail" ] @ Dip.header)
  in
  List.iter
    (fun proto ->
      List.iter
        (fun (plan_name, plan_text) ->
          let faults = plan_exn plan_name plan_text in
          let agg = Timeline.create () in
          ignore
            (Exp_common.run ~seed ~duration ~timeline:agg ~faults
               Exp_common.fig7_double proto);
          let reports = Dip.analyze (Timeline.finish agg) in
          List.iter
            (fun (r : Dip.report) ->
              Tablefmt.add_row t
                (Protocols.name proto :: plan_name :: r.Dip.fault
                :: r.Dip.detail :: Dip.cells r))
            reports)
        plans)
    protocols;
  t

(* The CLI/CI smoke target: a short journaled rolling patch of a
   3-node Domino group under load, whose journal feeds `domino
   analyze` and the roll-smoke CI step. *)
let smoke_journal ~seed ?faults ?timeline ?(journal = Journal.create ()) () =
  let faults =
    match faults with
    | Some f -> f
    | None -> plan_exn "roll" (List.assoc "roll" plans)
  in
  ignore
    (Exp_common.run ~seed ~duration:(Time_ns.sec 6) ~journal ?timeline
       ~faults Exp_common.fig7_double Protocols.domino_default);
  journal
