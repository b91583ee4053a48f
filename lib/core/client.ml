open Domino_sim
open Domino_net
open Domino_smr
open Domino_measure

type pending = { op : Op.t; mutable accepts : int; mutable done_ : bool }

type retry = { policy : Retry.policy; failover_after : int }

type t = {
  net : Message.msg Fifo_net.t;
  cfg : Config.t;
  self : Nodeid.t;
  estimator : Estimator.t;
  observer : Observer.t;
  pending : pending Op.Idtbl.t;
  retry : Retry.t option;
  done_ids : Dense_ids.t;
  feedback : Feedback.t option;  (** §5.4 adaptive controller *)
  mutable ts_cursor : Time_ns.t;
  mutable probe_seq : int;
  mutable dfp_count : int;
  mutable dm_count : int;
  mutable commit_count : int;
  mutable last_choice : Estimator.choice option;
  (* DM coordinator steering, set by the reconfiguration orchestrator
     while a replica is being rolled: route around [steer_avoid]
     (replica index) and prefer [steer_prefer] as the DM leader. While
     either is set the client skips DFP — the fast path needs every
     replica fresh, and the steered-away one is about to go down. *)
  mutable steer_avoid : int option;
  mutable steer_prefer : int option;
}

let now_local t = Fifo_net.local_time t.net t.self

let send t ~dst msg = Fifo_net.send t.net ~src:t.self ~dst msg

let replicas t = t.cfg.Config.replicas

let send_probes t =
  Array.iter
    (fun r ->
      t.probe_seq <- t.probe_seq + 1;
      send t ~dst:r
        (Message.Probe_req { seq = t.probe_seq; sent_local = now_local t }))
    (replicas t)

let note_outcome t outcome =
  match t.feedback with
  | Some f -> Feedback.record f outcome
  | None -> ()

let commit t (op : Op.t) ~fast =
  let id = Op.id op in
  (* Retries (and replica-side resends) can deliver the commit signal
     more than once; the client reports each op committed exactly once. *)
  if not (Dense_ids.mem t.done_ids id) then begin
    Dense_ids.add t.done_ids id;
    (match t.retry with Some r -> Retry.on_commit r op | None -> ());
    (match Op.Idtbl.find_opt t.pending id with
    | Some p ->
      p.done_ <- true;
      note_outcome t (if fast then Feedback.Fast else Feedback.Slow);
      Op.Idtbl.remove t.pending id
    | None ->
      (* DM replies have no pending entry on the DFP table. *)
      ());
    t.commit_count <- t.commit_count + 1;
    t.observer.Observer.on_commit op ~now:(Engine.now (Fifo_net.engine t.net))
  end

let submit_dm t (op : Op.t) ~leader =
  t.dm_count <- t.dm_count + 1;
  send t ~dst:(replicas t).(leader) (Message.Dm_request op)

let submit_dfp t (op : Op.t) ~ts =
  t.dfp_count <- t.dfp_count + 1;
  let ts = Stdlib.max ts (t.ts_cursor + 1) in
  t.ts_cursor <- ts;
  Op.Idtbl.replace t.pending (Op.id op) { op; accepts = 0; done_ = false };
  Array.iter (fun r -> send t ~dst:r (Message.Dfp_propose { ts; op })) (replicas t)

let closest_leader t ~now_local =
  (* Fallback when nothing is measured yet: replica 0 (or the next one
     when 0 is steered away from). *)
  let n = Config.n t.cfg in
  let avoid i = t.steer_avoid = Some i in
  let best = ref None in
  for i = 0 to n - 1 do
    if not (avoid i) then
      match Estimator.rtt t.estimator ~replica:i ~now_local with
      | Some rtt -> begin
        match !best with
        | Some (b, _) when b <= rtt -> ()
        | _ -> best := Some (rtt, i)
      end
      | None -> ()
  done;
  match !best with
  | Some (_, i) -> i
  | None -> if avoid 0 && n > 1 then 1 else 0

let set_steer t ~avoid ~prefer =
  t.steer_avoid <- avoid;
  t.steer_prefer <- prefer

let steer_avoid t = t.steer_avoid

let extra_delay t =
  match t.feedback with
  | Some f -> Feedback.extra_delay f
  | None -> t.cfg.Config.additional_delay

(* Domino's resend rule for the shared {!Retry} loop: a timed-out
   request goes again through DM — the robust path — to the closest
   leader for the first [failover_after] retries, then rotating through
   the other replicas. Server-side dedup (the fabric's op ledger) keeps
   duplicate deliveries harmless. *)
let resend t ~failover_after (op : Op.t) ~attempt =
  let retries = attempt - 1 in
  let closest = closest_leader t ~now_local:(now_local t) in
  let leader =
    if retries <= failover_after then closest
    else (closest + (retries - failover_after)) mod Config.n t.cfg
  in
  (* The failover rotation may land on a steered-away replica. *)
  let leader =
    if t.steer_avoid = Some leader then (leader + 1) mod Config.n t.cfg
    else leader
  in
  t.observer.Observer.on_phase ~node:t.self ~op:(Some op) ~name:"client_retry"
    ~dur:0 ~now:(Engine.now (Fifo_net.engine t.net));
  submit_dm t op ~leader

let create ~net ~cfg ~self ~observer ?retry () =
  let engine = Fifo_net.engine net in
  let t =
    {
      net;
      cfg;
      self;
      estimator =
        Estimator.create ~percentile:cfg.Config.percentile
          ~n_replicas:(Config.n cfg) ();
      observer;
      pending = Op.Idtbl.create 64;
      retry =
        Option.map (fun r -> Retry.create ~policy:r.policy engine) retry;
      done_ids = Dense_ids.create ();
      feedback =
        (if cfg.Config.adaptive then
           Some (Feedback.create ~baseline:cfg.Config.additional_delay)
         else None);
      ts_cursor = -1;
      probe_seq = 0;
      dfp_count = 0;
      dm_count = 0;
      commit_count = 0;
      last_choice = None;
      steer_avoid = None;
      steer_prefer = None;
    }
  in
  (match (t.retry, retry) with
  | Some r, Some { failover_after; _ } ->
    Retry.set_resend r (resend t ~failover_after)
  | _ -> ());
  ignore
    (Engine.every engine ~jitter:(Time_ns.us 500)
       ~interval:Config.probe_interval (fun () -> send_probes t));
  t

let submit t (op : Op.t) =
  t.observer.Observer.on_submit op ~now:(Engine.now (Fifo_net.engine t.net));
  (match t.retry with
  | Some r when not (Dense_ids.mem t.done_ids (Op.id op)) -> Retry.track r op
  | _ -> ());
  let local = now_local t in
  if t.steer_avoid <> None || t.steer_prefer <> None then begin
    let leader =
      match t.steer_prefer with
      | Some i -> i
      | None -> closest_leader t ~now_local:local
    in
    t.observer.Observer.on_phase ~node:t.self ~op:(Some op) ~name:"route_dm"
      ~dur:0 ~now:(Engine.now (Fifo_net.engine t.net));
    submit_dm t op ~leader
  end
  else begin
  let q = Config.supermajority t.cfg in
  let avoid_dfp =
    match t.feedback with
    | Some f -> Feedback.should_avoid_dfp f
    | None -> false
  in
  let choice =
    if t.cfg.Config.force_dfp then Estimator.Dfp
    else if avoid_dfp then
      (* §5.4: a persistently failing fast path means the measurements
         are not predicting this client's paths; use DM. *)
      Estimator.choose t.estimator ~q:(Config.n t.cfg + 1) ~now_local:local
    else Estimator.choose t.estimator ~q ~now_local:local
  in
  t.last_choice <- Some choice;
  let phase name dur =
    t.observer.Observer.on_phase ~node:t.self ~op:(Some op) ~name ~dur
      ~now:(Engine.now (Fifo_net.engine t.net))
  in
  match choice with
  | Estimator.Dfp -> begin
    match
      Estimator.request_timestamp t.estimator ~now_local:local ~q
        ~extra:(extra_delay t)
    with
    | Some ts ->
      (* The chosen scheduled-arrival headroom, in the client's clock
         frame — how far in the future the request timestamp lies. *)
      phase "route_dfp" (Stdlib.max 0 (Time_ns.diff ts local));
      submit_dfp t op ~ts
    | None ->
      phase "route_dm" 0;
      submit_dm t op ~leader:(closest_leader t ~now_local:local)
  end
  | Estimator.Dm leader ->
    phase "route_dm" 0;
    submit_dm t op ~leader
  end

let on_vote t ~subject ~report =
  let id = Op.id subject in
  match Op.Idtbl.find_opt t.pending id with
  | None -> ()
  | Some p ->
    if not p.done_ then begin
      match report with
      | Message.Voted_op op when Op.compare_id (Op.id op) id = 0 ->
        p.accepts <- p.accepts + 1;
        if p.accepts >= Config.supermajority t.cfg then
          commit t subject ~fast:true
      | Message.Voted_op _ | Message.Voted_noop ->
        (* The fast path may fail; the coordinator's slow path or DM
           rescue will resolve this request. *)
        ()
    end

let handle t ~src msg =
  match msg with
  | Message.Probe_rep reply ->
    let idx = Config.replica_index t.cfg src in
    Estimator.record_reply t.estimator ~replica:idx ~now_local:(now_local t)
      reply
  | Message.Dfp_vote { subject; report; _ } -> on_vote t ~subject ~report
  | Message.Dfp_slow_reply { op } | Message.Dm_reply { op } ->
    commit t op ~fast:false
  | _ -> ()

let estimator t = t.estimator

let dfp_submissions t = t.dfp_count

let commits t = t.commit_count

let dm_submissions t = t.dm_count

let retries t = Option.fold ~none:0 ~some:Retry.retries t.retry

let abandoned t = Option.fold ~none:0 ~some:Retry.abandoned t.retry

let last_choice t = t.last_choice

let current_extra_delay = extra_delay
