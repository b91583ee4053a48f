open Domino_sim
open Domino_net
open Domino_smr

module Store = Domino_store.Store

type t = {
  net : Message.msg Fifo_net.t;
  cfg : Config.t;
  replicas : Replica.t array;
  coordinator : Dfp_coordinator.t;
  coord_index : int;
  decision_seq : int array;
      (** per replica, the last sequence number stamped on the
          coordinator's decision stream; see [stamp] in [create] *)
  clients : (Nodeid.t, Client.t) Hashtbl.t;
}

(* The coordinator's decision-stream high water for one destination
   (journal kind "dsq"); see [stamp] in [create]. *)
type Store.record += Seq_high_water of { acceptor : int; seq : int }

(* --- wipe-restart recovery --- *)

let wipe_volatile t i =
  Replica.wipe_volatile t.replicas.(i);
  if i = t.coord_index then Dfp_coordinator.wipe_volatile t.coordinator

(* The highest "dsq" record per replica among [records]. *)
let dsq_high_water hw record =
  (match record with
  | Seq_high_water { acceptor; seq } ->
    hw.(acceptor) <- Stdlib.max hw.(acceptor) seq
  | _ -> ());
  hw

let seq_slack = 64 + 1_000_000

(* The co-located replica and coordinator share one store; each side
   replays the constructors it owns and skips the rest. *)
let replay t i records =
  let replica = t.replicas.(i) in
  Replica.set_replaying replica true;
  List.iter
    (fun record ->
      if i = t.coord_index then
        Dfp_coordinator.replay_record t.coordinator record;
      Replica.replay_record replica record)
    records;
  Replica.set_replaying replica false;
  if i = t.coord_index then begin
    (* Jump well past any stamp that may have gone out after the last
       "dsq" record was synced: sequence numbers must never be reused,
       and the forced gap makes every replica pull. *)
    let hw =
      List.fold_left dsq_high_water (Array.make (Array.length t.replicas) 0)
        records
    in
    Array.iteri (fun a hw -> t.decision_seq.(a) <- hw + seq_slack) hw
  end

let recover t i records =
  wipe_volatile t i;
  replay t i records

let recovery_state t i =
  Replica.recovery_state t.replicas.(i)
  @
  if i <> t.coord_index then []
  else
    Dfp_coordinator.recovery_state t.coordinator
    @ [ ("decision_seq", Array.to_list t.decision_seq) ]

(* Snapshots cover the disk frontier, not the log's end: a snapshot
   over unsynced records would make them durable early, and where it
   lands before their barrier (a slow or batched disk) it would shorten
   the next fsync and shift every later event of the run. *)
let snapshot t store i =
  let upto = Store.durable_upto store in
  let own = Replica.snapshot t.replicas.(i) ~upto in
  if i <> t.coord_index then (own, upto)
  else
    let hw =
      Store.fold store ~from:0 ~upto dsq_high_water
        (Array.make (Array.length t.replicas) 0)
    in
    let dsq =
      List.filter_map
        (fun acceptor ->
          let seq = hw.(acceptor) in
          if seq > 0 then Some (Seq_high_water { acceptor; seq }) else None)
        (List.init (Array.length hw) Fun.id)
    in
    (own @ Dfp_coordinator.snapshot t.coordinator ~upto @ dsq, upto)

type stats = {
  dfp_fast_decisions : int;
  dfp_slow_decisions : int;
  dfp_conflicts : int;
  dfp_submissions : int;
  dm_submissions : int;
  late_decisions : int;
}

let create (env : Protocol_intf.Group.env) cfg =
  if cfg.Config.replicas <> env.replicas then
    invalid_arg "Domino.create: cfg.replicas differs from env.replicas";
  let net = env.make_net ~classify:Message.classify ~op_of:Message.op_of in
  let { Protocol_intf.Group.observer; stores; params = p; _ } = env in
  let retry =
    if p.retry_timeout = 0 then None
    else
      Some
        {
          Client.policy =
            {
              Retry.timeout = p.retry_timeout;
              max_attempts = p.retry_max_attempts;
            };
          failover_after = p.retry_failover_after;
        }
  in
  let n = Config.n cfg in
  let replicas =
    Array.init n (fun index ->
        Replica.create ~net ~cfg ~index ~observer ~store:stores.(index) ())
  in
  let coord_node = cfg.Config.coordinator in
  let coord_index = Config.replica_index cfg coord_node in
  let coord_store = stores.(coord_index) in
  let send_from_coord ~dst msg = Fifo_net.send net ~src:coord_node ~dst msg in
  let broadcast_from_coord msg =
    Array.iter (fun r -> send_from_coord ~dst:r msg) cfg.Config.replicas
  in
  (* Per-destination sequence numbers on the decision stream (commits
     and decided watermarks): receivers detect drops — crash, lossy link
     — as gaps and pull the missed decisions rather than letting a later
     watermark silently no-op-fill them. Every 64th stamp per
     destination leaves a "dsq" high-water record in the coordinator's
     WAL (a plain append — it rides the next group commit); an amnesiac
     coordinator restarts each counter from the recovered high water
     plus a slack larger than any plausible unsynced run, so it never
     reuses a sequence number and every replica sees a gap and pulls. *)
  let decision_seq = Array.make n 0 in
  let stamp acceptor =
    decision_seq.(acceptor) <- decision_seq.(acceptor) + 1;
    let seq = decision_seq.(acceptor) in
    if seq land 63 = 0 then
      ignore
        (Store.append coord_store ~kind:"dsq"
           (Seq_high_water { acceptor; seq }));
    seq
  in
  let callbacks =
    {
      Dfp_coordinator.send_commit =
        (fun ts value ->
          Array.iteri
            (fun i r ->
              send_from_coord ~dst:r
                (Message.Dfp_commit { ts; value; seq = stamp i }))
            cfg.Config.replicas);
      send_p2a =
        (fun ts value ->
          (* Slow-path recovery: the coordinator gave up on the fast
             round for this position. *)
          observer.Observer.on_phase ~node:coord_node ~op:value
            ~name:"dfp_recovery" ~dur:0
            ~now:(Engine.now (Fifo_net.engine net));
          broadcast_from_coord (Message.Dfp_p2a { ts; value }));
      send_slow_reply =
        (fun op ->
          send_from_coord ~dst:op.Op.client (Message.Dfp_slow_reply { op }));
      send_watermark =
        (fun upto ->
          Array.iteri
            (fun i r ->
              send_from_coord ~dst:r
                (Message.Dfp_decided_watermark
                   { upto; seq = stamp i; resync = false; complete = false }))
            cfg.Config.replicas);
      send_commit_to =
        (fun acceptor ts value ->
          send_from_coord ~dst:cfg.Config.replicas.(acceptor)
            (Message.Dfp_commit { ts; value; seq = stamp acceptor }));
      send_watermark_to =
        (fun acceptor upto ~complete ->
          send_from_coord ~dst:cfg.Config.replicas.(acceptor)
            (Message.Dfp_decided_watermark
               { upto; seq = stamp acceptor; resync = true; complete }));
      rescue = (fun op -> Replica.dm_propose replicas.(coord_index) op);
    }
  in
  let coordinator = Dfp_coordinator.create ~store:coord_store cfg callbacks in
  let clients = Hashtbl.create 16 in
  let t =
    { net; cfg; replicas; coordinator; coord_index; decision_seq; clients }
  in
  (* Crash-with-amnesia hooks: at the wipe instant volatile state drops;
     at the restart instant the surviving snapshot and WAL suffix
     replay. *)
  Durable.install net ~replicas:cfg.Config.replicas ~stores
    ~wipe:(wipe_volatile t) ~replay:(replay t);
  Durable.auto_snapshot net ~replicas:cfg.Config.replicas ~stores
    ~encode:(fun i -> snapshot t stores.(i) i);
  (* Handlers: the coordinator replica sees learner traffic first, then
     regular replica dispatch. *)
  Array.iteri
    (fun index r ->
      let is_coord = Nodeid.equal r coord_node in
      let handler ~src msg =
        (if is_coord then
           match msg with
           | Message.Dfp_vote { ts; subject; report; acceptor; watermark } ->
             Dfp_coordinator.on_vote coordinator ~ts ~subject ~report
               ~acceptor ~watermark
           | Message.Replica_heartbeat { acceptor; watermark } ->
             Dfp_coordinator.on_heartbeat coordinator ~acceptor ~watermark
           | Message.Dfp_pull { acceptor; from } ->
             Dfp_coordinator.on_pull coordinator ~acceptor ~from
           | Message.Dfp_p2b { ts; acceptor } ->
             Dfp_coordinator.on_p2b coordinator ~ts ~acceptor
           | _ -> ());
        Replica.handle t.replicas.(index) ~src msg
      in
      Fifo_net.set_handler net r handler)
    cfg.Config.replicas;
  for node = 0 to Fifo_net.size net - 1 do
    if not (Array.exists (Nodeid.equal node) cfg.Config.replicas) then begin
      let client = Client.create ~net ~cfg ~self:node ~observer ?retry () in
      Hashtbl.replace clients node client;
      Fifo_net.set_handler net node (Client.handle client)
    end
  done;
  ignore
    (Engine.every (Fifo_net.engine net)
       ~interval:Config.heartbeat_interval (fun () ->
         Dfp_coordinator.tick coordinator;
         Dfp_coordinator.check_stuck coordinator
           ~now:(Engine.now (Fifo_net.engine net))));
  t

let client t node =
  match Hashtbl.find_opt t.clients node with
  | Some c -> c
  | None -> invalid_arg "Domino.client: node is not a client"

let replica t index = t.replicas.(index)

let submit t (op : Op.t) = Client.submit (client t op.Op.client) op

let committed_count t =
  Hashtbl.fold (fun _ c acc -> acc + Client.commits c) t.clients 0

(* Mean signed error of the clients' scheduled-arrival estimates
   against the ground-truth propagation delay: predicted arrival
   offset (percentile estimate, includes jitter headroom and clock
   skew) minus the link's base OWD, averaged over every fresh
   client->replica estimate. Positive = headroom; large values mean
   the estimator is over-delaying requests. *)
let estimator_error_ms t =
  let total = ref 0. and n = ref 0 in
  for node = 0 to Fifo_net.size t.net - 1 do
    match Hashtbl.find_opt t.clients node with
    | None -> ()
    | Some c ->
      let est = Client.estimator c in
      let now_local = Fifo_net.local_time t.net node in
      Array.iteri
        (fun i r ->
          if not (Nodeid.equal node r) then
            match
              Domino_measure.Estimator.arrival_offset est ~replica:i
                ~now_local
            with
            | Some off ->
              let truth =
                Link.base_owd (Fifo_net.link t.net ~src:node ~dst:r)
              in
              total := !total +. Time_ns.to_ms_f (Time_ns.diff off truth);
              incr n
            | None -> ())
        t.cfg.Config.replicas
  done;
  if !n = 0 then 0. else !total /. float_of_int !n

let stats t =
  let dfp_submissions =
    Hashtbl.fold (fun _ c acc -> acc + Client.dfp_submissions c) t.clients 0
  in
  let dm_submissions =
    Hashtbl.fold (fun _ c acc -> acc + Client.dm_submissions c) t.clients 0
  in
  let late =
    Array.fold_left (fun acc r -> acc + Replica.late_decisions r) 0 t.replicas
  in
  {
    dfp_fast_decisions = Dfp_coordinator.fast_decisions t.coordinator;
    dfp_slow_decisions = Dfp_coordinator.slow_decisions t.coordinator;
    dfp_conflicts = Dfp_coordinator.noop_conflicts t.coordinator;
    dfp_submissions;
    dm_submissions;
    late_decisions = late;
  }

module Api = struct
  type nonrec t = t

  let name = "domino"

  let create (env : Protocol_intf.Group.env) =
    let p = env.params in
    create env
      (Config.make ~additional_delay:p.additional_delay
         ~percentile:p.percentile ~every_replica_learns:p.every_replica_learns
         ~adaptive:p.adaptive ~coordinator:env.leader ~replicas:env.replicas
         ())

  let submit = submit
  let committed_count = committed_count

  let fast_slow_counts t =
    let s = stats t in
    Some (s.dfp_fast_decisions, s.dfp_slow_decisions)

  let extra_stats t =
    let s = stats t in
    [
      ("dfp_fast_decisions", s.dfp_fast_decisions);
      ("dfp_slow_decisions", s.dfp_slow_decisions);
      ("dfp_conflicts", s.dfp_conflicts);
      ("dfp_submissions", s.dfp_submissions);
      ("dm_submissions", s.dm_submissions);
      ("late_decisions", s.late_decisions);
      ( "client_retries",
        Hashtbl.fold (fun _ c acc -> acc + Client.retries c) t.clients 0 );
      ( "client_abandoned",
        Hashtbl.fold (fun _ c acc -> acc + Client.abandoned c) t.clients 0 );
    ]

  let gauges t =
    (* Replica 0's per-lane execution frontiers (ms of sim time): when
       execution stalls under faults, the lagging lane names the culprit
       — a DM lane points at its leader, the last lane at the DFP
       decided watermark. *)
    let lanes =
      List.init
        (Config.n t.cfg + 1)
        (fun lane ->
          ( Printf.sprintf "r0_lane%d_wm_ms" lane,
            fun () ->
              Time_ns.to_ms_f
                (Replica.exec_frontier_lane_watermark t.replicas.(0) ~lane) ))
    in
    ("estimator_err_ms", fun () -> estimator_error_ms t) :: lanes

  (* DM coordinator steering: Domino has no single leader to move —
     any replica fronts DM — so a transfer steers every client's DM
     routing around [from_] (and prefers [to_]) while skipping DFP,
     which needs all replicas fresh. Restore clears the steering so
     probes can bring the fast path back. *)
  let control t c ~k =
    let index_of node =
      if Array.exists (Nodeid.equal node) t.cfg.Config.replicas then
        Some (Config.replica_index t.cfg node)
      else None
    in
    match c with
    | Protocol_intf.Transfer { from_; to_ } -> begin
      match (index_of from_, index_of to_) with
      | Some fi, Some ti ->
        Hashtbl.iter
          (fun _ c -> Client.set_steer c ~avoid:(Some fi) ~prefer:(Some ti))
          t.clients;
        k ();
        true
      | _ -> false
    end
    | Protocol_intf.Restore { node } -> begin
      match index_of node with
      | Some i ->
        Hashtbl.iter
          (fun _ c ->
            if Client.steer_avoid c = Some i then
              Client.set_steer c ~avoid:None ~prefer:None)
          t.clients;
        k ();
        true
      | None -> false
    end
end
