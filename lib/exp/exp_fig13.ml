open Domino_sim
open Domino_net
open Domino_smr
open Domino_stats

type result = { protocol : string; peak_rps : float; paper_rps : float }

(* --- Cost model (microseconds of CPU per received message) ---

   Calibrated so Multi-Paxos lands near the paper's 36K req/s on its
   leader bottleneck; the other protocols' peaks then follow from
   their message patterns. Proposal ordering at a leader is the
   expensive step; appends, acks and commit notifications are cheap;
   measurement traffic is negligible per-message. Domino's coordinator
   and replicas process votes concurrently with log appends in the
   paper's implementation ("more parallelism between I/O operations
   and computation"), modelled as a second service worker. *)

let us = Time_ns.us

let baseline_cost cls =
  match (cls : Msg_class.t) with
  | Proposal -> us 20 (* leader/owner ordering of one proposal *)
  | Replication -> us 8 (* acceptor append *)
  | Ack -> us 4 (* vote / skip handling *)
  | Commit_notice -> us 4
  | Control -> us 2

(* Domino's client-stamped requests skip the ordering step entirely:
   replicas append directly (slightly above the plain append cost for
   the timestamp checks) and the coordinator merely counts votes. *)
let domino_cost cls =
  match (cls : Msg_class.t) with
  | Proposal -> us 20 (* DM requests at their leader *)
  | Replication -> us 7 (* timestamp check + append; no ordering step *)
  | Ack -> us 4
  | Commit_notice -> us 3
  | Control -> us 2

(* Build a 6-node LAN: replicas 0-2, clients 3-5. *)
let lan_net : type msg. Engine.t -> msg Fifo_net.t =
 fun engine ->
  let n = 6 in
  let net = Fifo_net.create engine ~n in
  let rng = Engine.rng engine in
  for src = 0 to n - 1 do
    for dst = 0 to n - 1 do
      if src <> dst then Fifo_net.set_link net ~src ~dst (Link.local rng)
    done
  done;
  net

let replicas = [| 0; 1; 2 |]
let clients = [ 3; 4; 5 ]

let measure_window = (Time_ns.ms 1000, Time_ns.ms 2500)

let run_load (type msg) ~seed ~(make : msg Fifo_net.t -> Observer.t -> Op.t -> unit)
    ~(cost : replica:int -> msg -> Time_ns.span) ~workers ~rate () =
  let engine = Engine.create ~seed () in
  let net : msg Fifo_net.t = lan_net engine in
  let recorder = Observer.Recorder.create () in
  let from_, until = measure_window in
  let observer = Observer.Recorder.observer recorder in
  let submit = make net observer in
  Array.iter
    (fun r ->
      Fifo_net.set_service net r ~workers ~cost:(fun m -> cost ~replica:r m))
    replicas;
  let duration = Time_ns.ms 3000 in
  let _w =
    Domino_kv.Workload.create
      ~rate:(rate /. float_of_int (List.length clients))
      ~clients ~duration ~submit engine
  in
  Engine.run ~until:duration engine;
  (* Peak throughput = commit events per second inside the window —
     robust under overload, where commits of window-submitted requests
     spill far past the run. *)
  let in_window =
    List.fold_left
      (fun acc (_, at) -> if at >= from_ && at <= until then acc + 1 else acc)
      0
      (Observer.Recorder.commit_times recorder)
  in
  float_of_int in_window /. Time_ns.to_sec_f (until - from_)

let sweep ~quick ~seed ~make ~cost ~workers =
  (* Offered loads stop at the protocols' stable regions: past the
     knee the simulated cluster enters congestion collapse (quadratic
     event counts for no extra information). *)
  let loads =
    if quick then [ 45_000.; 60_000. ]
    else [ 20_000.; 30_000.; 40_000.; 50_000.; 60_000.; 70_000. ]
  in
  List.fold_left
    (fun best rate ->
      let achieved = run_load ~seed ~make ~cost ~workers ~rate () in
      Float.max best achieved)
    0. loads

let multi_paxos_peak ~quick ~seed =
  let make net observer =
    let p =
      Domino_proto.Multipaxos.create ~net ~replicas ~leader:0 ~observer ()
    in
    Domino_proto.Multipaxos.submit p
  in
  let cost ~replica:_ m = baseline_cost (Domino_proto.Multipaxos.classify m) in
  sweep ~quick ~seed ~make ~cost ~workers:1

let mencius_peak ~quick ~seed =
  let make net observer =
    let p =
      Domino_proto.Mencius.create ~net ~replicas
        ~coordinator_of:(fun c -> c mod 3)
        ~observer ()
    in
    Domino_proto.Mencius.submit p
  in
  let cost ~replica:_ m = baseline_cost (Domino_proto.Mencius.classify m) in
  sweep ~quick ~seed ~make ~cost ~workers:1

let epaxos_peak ~quick ~seed =
  let make net observer =
    let p =
      Domino_proto.Epaxos.create ~net ~replicas
        ~coordinator_of:(fun c -> c mod 3)
        ~observer ()
    in
    Domino_proto.Epaxos.submit p
  in
  let cost ~replica:_ m = baseline_cost (Domino_proto.Epaxos.classify m) in
  sweep ~quick ~seed ~make ~cost ~workers:1

let domino_peak ~quick ~seed =
  let make net observer =
    (* Pin clients to DFP: in the symmetric LAN DFP is the cheaper
       subsystem, and pinning keeps the saturation point well defined
       (otherwise queue-inflated estimates shift clients to DM). The
       adaptive §5.4 controller (with a small baseline delay) absorbs
       queueing-induced lateness near saturation, which would otherwise
       ignite a slow-path feedback storm. *)
    let cfg =
      Domino_core.Config.make ~force_dfp:true ~adaptive:true
        ~additional_delay:(Time_ns.ms 2) ~replicas ~coordinator:0 ()
    in
    let d = Domino_core.Domino.create ~net ~cfg ~observer () in
    Domino_core.Domino.submit d
  in
  let cost ~replica:_ m = domino_cost (Domino_core.Message.classify m) in
  (* Two service workers: the implementation overlaps network I/O with
     log processing (the paper's stated reason Domino beats Mencius). *)
  sweep ~quick ~seed ~make ~cost ~workers:2

let run ?(quick = true) ?(seed = 42L) () =
  (* The four load sweeps are independent simulations; fan them out. *)
  Domino_par.Par.map_list
    (fun (protocol, peak, paper_rps) ->
      { protocol; peak_rps = peak ~quick ~seed; paper_rps })
    [
      ("Domino", domino_peak, 65_000.);
      ("EPaxos", epaxos_peak, 57_000.);
      ("Mencius", mencius_peak, 56_000.);
      ("Multi-Paxos", multi_paxos_peak, 36_000.);
    ]

let table ?(quick = true) ?(seed = 42L) () =
  let t =
    Tablefmt.create
      ~title:
        "Figure 13: peak commit throughput, 3 replicas, LAN cluster \
         (requests/second)"
      ~header:[ "protocol"; "paper"; "measured" ]
  in
  List.iter
    (fun r ->
      Tablefmt.add_row t
        [
          r.protocol;
          Printf.sprintf "%.0fK" (r.paper_rps /. 1000.);
          Printf.sprintf "%.1fK" (r.peak_rps /. 1000.);
        ])
    (run ~quick ~seed ());
  t
