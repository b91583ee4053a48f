open Domino_sim
open Domino_net
open Domino_smr
open Domino_stats

type phase = { from_sec : float; domino_ms : float; mencius_ms : float }

(* 3 replicas (0,1,2) + 1 client (3); symmetric links with emulated
   base RTTs and the calm intra-cluster jitter (the paper used Linux
   tc on a private cluster). *)
type change = { apply : 'msg. 'msg Fifo_net.t -> unit }

let build_net : type msg. Engine.t -> rtt_ms:(int -> int -> float) -> msg Fifo_net.t
    = fun engine ~rtt_ms ->
  let n = 4 in
  let net = Fifo_net.create engine ~n in
  let rng = Engine.rng engine in
  for src = 0 to n - 1 do
    for dst = 0 to n - 1 do
      if src <> dst then begin
        let owd = Time_ns.of_ms_f (rtt_ms src dst /. 2.) in
        Fifo_net.set_link net ~src ~dst
          (Link.create ~jitter:Jitter.calm_lan ~loss:0. ~base_owd:owd rng)
      end
    done
  done;
  net

let set_rtt net a b rtt_ms =
  let owd = Time_ns.of_ms_f (rtt_ms /. 2.) in
  Link.set_base_owd (Fifo_net.link net ~src:a ~dst:b) owd;
  Link.set_base_owd (Fifo_net.link net ~src:b ~dst:a) owd

type proto = P_domino | P_mencius

(* Run one protocol over one delay scenario; returns the (submit time,
   latency) series. [changes] is a list of (at, thunk net) events. *)
let run_proto ~seed ~duration ~rate ~initial_rtt ~changes proto =
  let engine = Engine.create ~seed () in
  let recorder = Observer.Recorder.create () in
  (* skip the probing warm-up second *)
  Observer.Recorder.start_measuring recorder (Time_ns.sec 2);
  let observer = Observer.Recorder.observer recorder in
  let replicas = [| 0; 1; 2 |] in
  let client = 3 in
  let env =
    Durable.standalone engine ~replicas ~observer
      {
        Durable.make =
          (fun ~classify:_ ~op_of:_ ->
            let net = build_net engine ~rtt_ms:initial_rtt in
            List.iter
              (fun (at, change) ->
                Engine.schedule_at engine ~at (fun () -> change.apply net))
              changes;
            net);
      }
  in
  let submit =
    match proto with
    | P_domino ->
      Domino_core.Domino.submit
        (Domino_core.Domino.create env
           (Domino_core.Config.make ~replicas ~coordinator:0 ()))
    | P_mencius -> Domino_proto.Mencius.submit (Domino_proto.Mencius.create env)
  in
  let _w =
    Domino_kv.Workload.create ~rate ~clients:[ client ] ~duration ~submit engine
  in
  Engine.run ~until:(duration + Time_ns.sec 2) engine;
  Observer.Recorder.latency_series recorder

let phase_medians ~duration series phase_starts =
  let phases = Array.of_list phase_starts in
  let sums = Array.map (fun _ -> Summary.create ()) phases in
  List.iter
    (fun (sent, lat) ->
      let idx = ref (-1) in
      Array.iteri (fun i start -> if sent >= start then idx := i) phases;
      (* Drop samples straddling a change boundary (first second). *)
      if !idx >= 0 && sent >= phases.(!idx) + Time_ns.sec 2 then
        Summary.add sums.(!idx) lat)
    series;
  ignore duration;
  Array.to_list (Array.map Summary.median sums)

let scenario ~seed ~duration ~initial_rtt ~changes =
  let rate = 20. in
  let thirds =
    [ Time_ns.zero; duration / 3; 2 * duration / 3 ]
  in
  let dom, men =
    match
      Domino_par.Par.map_list
        (fun proto -> run_proto ~seed ~duration ~rate ~initial_rtt ~changes proto)
        [ P_domino; P_mencius ]
    with
    | [ dom; men ] -> (dom, men)
    | _ -> assert false
  in
  let dm = phase_medians ~duration dom thirds in
  let mm = phase_medians ~duration men thirds in
  List.map2
    (fun (start, d) m ->
      { from_sec = Time_ns.to_sec_f start; domino_ms = d; mencius_ms = m })
    (List.combine thirds dm) mm

let run_a ?(seed = 42L) ?(duration = Time_ns.sec 45) () =
  let initial_rtt _ _ = 30. in
  let changes =
    [
      (duration / 3, { apply = (fun net -> set_rtt net 3 0 50.) });
      (2 * duration / 3, { apply = (fun net -> set_rtt net 3 0 70.) });
    ]
  in
  scenario ~seed ~duration ~initial_rtt ~changes

let run_b ?(seed = 42L) ?(duration = Time_ns.sec 45) () =
  let initial_rtt a b =
    let pair = (Stdlib.min a b, Stdlib.max a b) in
    match pair with (1, 3) | (2, 3) -> 70. | _ -> 30.
  in
  let changes =
    [
      ( duration / 3,
        {
          apply =
            (fun net ->
              set_rtt net 0 1 60.;
              set_rtt net 0 2 60.);
        } );
      (2 * duration / 3, { apply = (fun net -> set_rtt net 1 2 60.) });
    ]
  in
  scenario ~seed ~duration ~initial_rtt ~changes

let table ?(seed = 42L) () =
  let mk title paper phases =
    let t =
      Tablefmt.create ~title
        ~header:[ "phase"; "Domino p50"; "Mencius p50"; "paper (Domino vs Mencius)" ]
    in
    List.iteri
      (fun i p ->
        Tablefmt.add_row t
          [
            Printf.sprintf "from %.0fs" p.from_sec;
            Tablefmt.cell_ms p.domino_ms;
            Tablefmt.cell_ms p.mencius_ms;
            List.nth paper i;
          ])
      phases;
    t
  in
  [
    mk
      "Figure 12a: commit latency under client-replica delay changes"
      [ "30 vs 60"; "50 vs 80"; "60 vs 100" ]
      (run_a ~seed ());
    mk
      "Figure 12b: commit latency under replica-replica delay changes"
      [ "60 vs 60"; "<90 vs 90"; "70 vs 90" ]
      (run_b ~seed ());
  ]
