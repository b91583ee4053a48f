open Domino_sim
open Domino_obs
open Domino_stats

(* The two canonical outage shapes from the chaos suite, scaled so the
   pre-fault baseline has settled: a leader crash healed by recover,
   and a follower crash-with-amnesia (wipe) that restarts from
   snapshot + log replay. *)
let plans =
  [
    ("leader-crash", "at 2500ms crash node=0\nat 4s recover node=0\n");
    ("follower-wipe", "at 2500ms crash node=2\nat 4s wipe node=2\n");
  ]

let protocols =
  [
    Exp_common.domino_default;
    Exp_common.Mencius;
    Exp_common.Epaxos;
    Exp_common.Multi_paxos;
    Exp_common.Fast_paxos;
  ]

let plan_exn name text =
  match Domino_fault.Plan.parse text with
  | Ok p -> p
  | Error e -> invalid_arg (Printf.sprintf "Exp_recovery plan %s: %s" name e)

let run ?(quick = true) ?(seed = 42L) () =
  let duration = Time_ns.sec (if quick then 8 else 20) in
  let t =
    Tablefmt.create
      ~title:
        "Timelines & recovery: throughput dip and time-to-recover under \
         faults — NA, 3 replicas, 2 clients, 200 req/s each, 100 ms windows"
      ~header:([ "protocol"; "plan"; "fault" ] @ Dip.header)
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
                (Exp_common.protocol_name proto :: plan_name :: r.Dip.fault
                :: Dip.cells r))
            reports)
        plans)
    protocols;
  t

(* The CLI/CI smoke target: a short journaled crash-and-heal run whose
   journal feeds `domino analyze` (the chaos-suite CSV artifacts). *)
let smoke_journal ~seed ?faults ?timeline ?(journal = Journal.create ()) () =
  let faults =
    match faults with
    | Some f -> f
    | None -> plan_exn "leader-crash" (List.assoc "leader-crash" plans)
  in
  ignore
    (Exp_common.run ~seed ~duration:(Time_ns.sec 6) ~journal ?timeline
       ~faults Exp_common.fig7_double Exp_common.domino_default);
  journal
