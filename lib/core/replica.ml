open Domino_sim
open Domino_net
open Domino_smr
open Domino_log
open Domino_measure
module Store = Domino_store.Store

module Tsmap = Map.Make (Int)

(* DM positions, (lane, ts), hashed without the polymorphic hash. *)
module Postbl = Hashtbl.Make (struct
  type t = int * Time_ns.t

  let equal (l1, t1) (l2, t2) = Int.equal l1 l2 && Int.equal t1 t2

  (* Timestamps share trailing zeros; fold the high bits down so the
     bucket index (the low bits) sees them. *)
  let hash (lane, ts) =
    let h = (ts * 0x9E3779B1) + lane in
    h lxor (h lsr 32)
end)

(* This replica's share of the node's WAL (a co-located coordinator
   adds its own records to the same store). Journal kinds in quotes. *)
type Store.record +=
  | Accepted of { ts : Time_ns.t; op : Op.t }
        (** "dv": DFP round-0 accept, synced before the vote; "dp2a":
            round-1 accept, synced before the P2b *)
  | Decided of { ts : Time_ns.t; value : Op.t option }
        (** "dc": DFP decision, synced before execution *)
  | Decided_wm of Time_ns.t
        (** "dw": DFP decided watermark, synced before its no-op
            blanket opens positions to execution *)
  | Dm_proposed of { ts : Time_ns.t; op : Op.t }
        (** "dmp": own-lane DM proposal, synced before the accept round
            — an amnesiac leader must not reuse the timestamp *)
  | Dm_committed of { lane : int; ts : Time_ns.t; op : Op.t }
        (** "dmc": DM commit, synced before execution *)
  | Dm_wm of { lane : int; upto : Time_ns.t }
        (** "dmw": DM lane watermark, synced before applying *)

type dm_inst = {
  op : Op.t;
  mutable acks : int;
  mutable committed : bool;
  mutable commit_acks : int;
      (** bitmask of the replicas that applied the commit; the instance
          is retained (holding the lane watermark down) until all have *)
  mutable n_commit_acks : int;  (** bits set in [commit_acks] *)
  opened : Time_ns.t;  (** engine time, for retransmission pacing *)
}

type t = {
  net : Message.msg Fifo_net.t;
  cfg : Config.t;
  self : Nodeid.t;
  index : int;
  mutable estimator : Estimator.t;
  mutable exec : Op.t Exec_engine.t;
  observer : Observer.t;
  (* DFP acceptor: round-0 accepted proposals. *)
  mutable dfp_accepted : Op.t Tsmap.t;
  mutable dfp_dseq : int;
      (** last sequence number seen on the coordinator's decision
          stream *)
  mutable dfp_synced : bool;
      (** no gap since the last complete resync: ordinary broadcast
          watermarks may be applied (their implicit no-op blanket is
          only sound when no decision broadcast was dropped) *)
  mutable dfp_wm_logged : Time_ns.t;
      (** highest decided watermark handed to the WAL; the sync barrier
          completes before the watermark takes effect *)
  (* DM leader. *)
  mutable dm_cursor : Time_ns.t;
  mutable dm_pending : dm_inst Tsmap.t;
  mutable dm_watermark_sent : Time_ns.t;
  (* DM acceptor: commits already persisted, to keep retransmissions
     from re-syncing. *)
  dm_commit_seen : unit Postbl.t;
  dm_wm_logged : Time_ns.t array;  (** per lane, like [dfp_wm_logged] *)
  (* Optional learner role (every_replica_learns): per (ts, op) accept
     counts from broadcast votes. *)
  learner_counts : (Time_ns.t * Op.id, int ref) Hashtbl.t;
  mutable probe_seq : int;
  store : Store.t;  (** the node's WAL; see the record type above *)
  mutable replaying : bool;
}

let now_local t = Fifo_net.local_time t.net t.self

let now_engine t = Engine.now (Fifo_net.engine t.net)

let replicas t = t.cfg.Config.replicas

let send t ~dst msg = Fifo_net.send t.net ~src:t.self ~dst msg

let broadcast t msg =
  Array.iter (fun r -> send t ~dst:r msg) (replicas t)

let coordinator t = t.cfg.Config.coordinator

(* --- Measurement --- *)

let replication_latency t =
  match
    Estimator.replication_latency t.estimator ~m:(Config.majority t.cfg)
      ~now_local:(now_local t)
  with
  | Some l -> l
  | None -> max_int

let answer_probe t ~src (req : Probe.request) =
  let reply =
    Probe.reply_of_request req ~replica_local:(now_local t)
      ~replication_latency:(replication_latency t)
  in
  send t ~dst:src (Message.Probe_rep reply)

let send_probes t =
  Array.iteri
    (fun i r ->
      if i <> t.index then begin
        t.probe_seq <- t.probe_seq + 1;
        send t ~dst:r
          (Message.Probe_req { seq = t.probe_seq; sent_local = now_local t })
      end)
    (replicas t)

let on_probe_reply t ~src (reply : Probe.reply) =
  let idx = Config.replica_index t.cfg src in
  Estimator.record_reply t.estimator ~replica:idx ~now_local:(now_local t)
    reply

(* --- DFP acceptor --- *)

(* The no-op fill time this acceptor may honestly announce: its clock,
   bounded by its oldest still-pending accepted proposal. Announcing
   past a pending accept would imply "no-op there" while this acceptor
   voted an op there — unsound the moment that vote is lost to a
   coordinator crash. *)
let dfp_watermark t =
  let local = now_local t in
  match Tsmap.min_binding_opt t.dfp_accepted with
  | None -> local
  | Some (ts, _) -> Stdlib.min local (ts - 1)

let dfp_send_vote t ~ts ~subject ~report =
  let vote =
    Message.Dfp_vote
      { ts; subject; report; acceptor = t.index; watermark = dfp_watermark t }
  in
  send t ~dst:(coordinator t) vote;
  if not (Nodeid.equal subject.Op.client (coordinator t)) then
    send t ~dst:subject.Op.client vote;
  if t.cfg.Config.every_replica_learns then
    Array.iter
      (fun r -> if not (Nodeid.equal r (coordinator t)) then send t ~dst:r vote)
      (replicas t)

let dfp_on_propose t (op : Op.t) ~ts =
  let local = now_local t in
  match Tsmap.find_opt ts t.dfp_accepted with
  | Some existing ->
    dfp_send_vote t ~ts ~subject:op ~report:(Message.Voted_op existing)
  | None ->
    if ts > local then begin
      (* The position is in the future: this replica will hold the
         op until its local clock passes [ts] (the paper's
         scheduled-arrival wait). The vote itself goes out once the
         accept is durable, so the wait burdens execution, not the
         fast-path commit. *)
      t.observer.Observer.on_phase ~node:t.self ~op:(Some op) ~name:"sched_wait"
        ~dur:(Time_ns.diff ts local)
        ~now:(now_engine t);
      t.dfp_accepted <- Tsmap.add ts op t.dfp_accepted;
      Store.append_sync t.store ~kind:"dv" (Accepted { ts; op }) (fun () ->
          dfp_send_vote t ~ts ~subject:op ~report:(Message.Voted_op op))
    end
    else
      (* The position expired: it already holds an implicit no-op. *)
      dfp_send_vote t ~ts ~subject:op ~report:Message.Voted_noop

let dfp_on_p2a t ~ts ~value =
  (* Round 1 from the single coordinator always supersedes the fast
     round; record the value so a duplicate proposal reports it. *)
  let ack () =
    send t ~dst:(coordinator t) (Message.Dfp_p2b { ts; acceptor = t.index })
  in
  match value with
  | None -> ack ()
  | Some op -> (
    match Tsmap.find_opt ts t.dfp_accepted with
    | Some prev when Op.compare_id (Op.id prev) (Op.id op) = 0 ->
      ack () (* retransmitted P2a: already durable *)
    | _ ->
      t.dfp_accepted <- Tsmap.add ts op t.dfp_accepted;
      Store.append_sync t.store ~kind:"dp2a" (Accepted { ts; op }) ack)

let dfp_lane t = Config.dfp_lane t.cfg

(* Sound coverage frontier: every DFP decision at or below it has been
   applied here. It is the engine's raw DFP watermark, which only
   trusted watermarks advance — an op-commit's timestamp says nothing
   about earlier positions. *)
let dfp_covered t = Exec_engine.watermark t.exec ~lane:(dfp_lane t)

(* Fold a decision-stream message's sequence number in; returns whether
   THIS message revealed a gap. A gap means the coordinator sent
   decisions we never received (crash, lossy link), so the implicit
   no-op blanket of ordinary watermarks is no longer sound: [dfp_synced]
   drops until a complete resync. *)
let dfp_stream_in t ~seq =
  let gap = seq > t.dfp_dseq + 1 in
  if gap then t.dfp_synced <- false;
  if seq > t.dfp_dseq then t.dfp_dseq <- seq;
  gap

let dfp_commit_now t ~ts ~value =
  (* Individual decisions are position-local and idempotent: safe to
     apply whether in-order, re-sent, or following a gap. *)
  (match value with
  | Some op ->
    Exec_engine.decide_op t.exec { Position.ts; lane = dfp_lane t } op
  | None -> Exec_engine.decide_noop t.exec { Position.ts; lane = dfp_lane t });
  (* The position is settled; drop acceptor state. *)
  t.dfp_accepted <- Tsmap.remove ts t.dfp_accepted

let dfp_on_commit t ~ts ~value ~seq =
  ignore (dfp_stream_in t ~seq : bool);
  Store.append_sync t.store ~kind:"dc" (Decided { ts; value }) (fun () ->
      dfp_commit_now t ~ts ~value)

let dfp_apply_watermark_now t ~upto =
  Exec_engine.set_watermark t.exec ~lane:(dfp_lane t) upto

let dfp_apply_watermark t ~upto =
  (* The watermark's no-op blanket opens positions to execution, so it
     must be durable before it takes effect. *)
  if upto > t.dfp_wm_logged then begin
    t.dfp_wm_logged <- upto;
    Store.append_sync t.store ~kind:"dw" (Decided_wm upto) (fun () ->
        dfp_apply_watermark_now t ~upto)
  end

let dfp_on_decided_watermark t ~upto ~seq ~resync ~complete =
  let gap = dfp_stream_in t ~seq in
  if resync then begin
    (* Pull reply: the coordinator just re-sent (FIFO, ahead of this
       message) every decided operation <= [upto] we lacked, so the
       no-op blanket is sound regardless of [dfp_synced]. Trust in
       ordinary broadcasts resumes only if the resync both reached the
       decided watermark and arrived gap-free — a gap at this very
       message means broadcasts above [upto] were dropped after the
       batch was cut, which the next pull round must cover. *)
    dfp_apply_watermark t ~upto;
    if complete && not gap then t.dfp_synced <- true
  end
  else if t.dfp_synced then dfp_apply_watermark t ~upto

(* Learner role (§5.7 optimisation): watch broadcast votes and commit
   fast-path decisions locally, ahead of the coordinator's notice. *)
let learner_on_vote t ~ts ~report =
  match report with
  | Message.Voted_noop -> ()
  | Message.Voted_op op ->
    let key = (ts, Op.id op) in
    let count =
      match Hashtbl.find_opt t.learner_counts key with
      | Some c -> c
      | None ->
        let c = ref 0 in
        Hashtbl.replace t.learner_counts key c;
        c
    in
    incr count;
    if !count >= Config.supermajority t.cfg then begin
      Hashtbl.remove t.learner_counts key;
      (* A locally learned decision is a decision like any other: it
         must hit the WAL before the state machine. *)
      Store.append_sync t.store ~kind:"dc"
        (Decided { ts; value = Some op })
        (fun () ->
          Exec_engine.decide_op t.exec { Position.ts; lane = dfp_lane t } op)
    end;
    if Hashtbl.length t.learner_counts > 65536 then
      (* Stale entries for positions that went through the slow path. *)
      Hashtbl.reset t.learner_counts

(* --- DM --- *)

let dm_propose t (op : Op.t) =
  let local = now_local t in
  let lat =
    match
      Estimator.replication_latency t.estimator ~m:(Config.majority t.cfg)
        ~now_local:local
    with
    | Some l -> l
    | None -> Time_ns.ms 10 (* warm-up fallback *)
  in
  let ts = Stdlib.max (Time_ns.add local lat) (t.dm_cursor + 1) in
  t.dm_cursor <- ts;
  t.dm_pending <-
    Tsmap.add ts
      {
        op;
        acks = 1;
        committed = false;
        commit_acks = 0;
        n_commit_acks = 0;
        opened = now_engine t;
      }
      t.dm_pending;
  Store.append_sync t.store ~kind:"dmp" (Dm_proposed { ts; op }) (fun () ->
      Array.iteri
        (fun i r ->
          if i <> t.index then
            send t ~dst:r (Message.Dm_accept { leader = t.index; ts; op }))
        (replicas t))

let dm_on_accept t ~leader ~ts ~op =
  (* The ack carries no promise — the leader's own durable proposal is
     the only value this position can take — so nothing to persist. *)
  ignore op;
  send t ~dst:(replicas t).(leader)
    (Message.Dm_accepted { leader; ts; acceptor = t.index })

let dm_on_accepted t ~ts =
  match Tsmap.find_opt ts t.dm_pending with
  | None -> ()
  | Some inst ->
    inst.acks <- inst.acks + 1;
    if (not inst.committed) && inst.acks >= Config.majority t.cfg then begin
      inst.committed <- true;
      (* Safe to externalize before a commit record syncs: the (ts, op)
         binding is already durable ("dmp"), and an amnesiac leader
         re-drives the accept round to the same decision. Retained
         (holding the lane watermark down) until every replica acks the
         commit — a crashed replica must not have the position
         no-op-filled under an op the others executed. *)
      broadcast t (Message.Dm_commit { leader = t.index; ts; op = inst.op });
      send t ~dst:inst.op.Op.client (Message.Dm_reply { op = inst.op })
    end

let dm_on_commit t ~leader ~ts ~op =
  if Postbl.mem t.dm_commit_seen (leader, ts) then
    send t ~dst:(replicas t).(leader)
      (Message.Dm_commit_ack { leader; ts; acceptor = t.index })
  else begin
    Postbl.replace t.dm_commit_seen (leader, ts) ();
    Store.append_sync t.store ~kind:"dmc"
      (Dm_committed { lane = leader; ts; op })
      (fun () ->
        Exec_engine.decide_op t.exec { Position.ts; lane = leader } op;
        send t ~dst:(replicas t).(leader)
          (Message.Dm_commit_ack { leader; ts; acceptor = t.index }))
  end

let dm_on_commit_ack t ~ts ~acceptor =
  match Tsmap.find_opt ts t.dm_pending with
  | None -> ()
  | Some inst ->
    let bit = 1 lsl acceptor in
    if inst.commit_acks land bit = 0 then begin
      inst.commit_acks <- inst.commit_acks lor bit;
      inst.n_commit_acks <- inst.n_commit_acks + 1
    end;
    if inst.committed && inst.n_commit_acks >= Config.n t.cfg then
      t.dm_pending <- Tsmap.remove ts t.dm_pending

let dm_on_watermark t ~leader ~upto =
  if upto > t.dm_wm_logged.(leader) then begin
    t.dm_wm_logged.(leader) <- upto;
    Store.append_sync t.store ~kind:"dmw" (Dm_wm { lane = leader; upto })
      (fun () -> Exec_engine.set_watermark t.exec ~lane:leader upto)
  end

(* The lane watermark a DM leader may announce: its local clock,
   bounded by its oldest uncommitted proposal. A wiped leader's clock
   keeps running through the outage, so its post-recovery proposals
   (clock + L_r) always land above anything it announced before — the
   announcement itself needs no WAL record. *)
let dm_send_watermark t =
  let local = now_local t in
  let bound =
    match Tsmap.min_binding_opt t.dm_pending with
    | None -> local
    | Some (ts, _) -> Stdlib.min local (ts - 1)
  in
  if bound > t.dm_watermark_sent then begin
    t.dm_watermark_sent <- bound;
    broadcast t (Message.Dm_watermark { leader = t.index; upto = bound })
  end

(* --- Heartbeats --- *)

let send_heartbeat t =
  send t ~dst:(coordinator t)
    (Message.Replica_heartbeat
       { acceptor = t.index; watermark = dfp_watermark t });
  dm_send_watermark t

(* --- Retransmission (crash recovery) ---

   Everything here is idempotent at the receiver, so re-sending after a
   suspiciously long silence is safe: votes are deduplicated per
   acceptor, commits per position. *)

let retransmit_after = Time_ns.ms 400

let retransmit t =
  let local = now_local t in
  (* Decision-stream gap outstanding: keep pulling until the coordinator
     certifies full coverage (each partial reply raises [dfp_covered],
     so successive pulls ask from higher ground). *)
  if not t.dfp_synced then
    send t ~dst:(coordinator t)
      (Message.Dfp_pull { acceptor = t.index; from = dfp_covered t });
  (* DFP accepts whose position long expired with no commit: the vote
     (or the whole coordinator) was lost; re-offer it. *)
  let sent = ref 0 in
  Tsmap.iter
    (fun ts op ->
      if !sent < 64 && ts < Time_ns.diff local retransmit_after then begin
        incr sent;
        send t ~dst:(coordinator t)
          (Message.Dfp_vote
             {
               ts;
               subject = op;
               report = Message.Voted_op op;
               acceptor = t.index;
               watermark = dfp_watermark t;
             })
      end)
    t.dfp_accepted;
  (* DM instances stuck mid-protocol. *)
  let now_g = now_engine t in
  Tsmap.iter
    (fun ts inst ->
      if Time_ns.diff now_g inst.opened > retransmit_after then
        if inst.committed then
          Array.iteri
            (fun i r ->
              if inst.commit_acks land (1 lsl i) = 0 then
                send t ~dst:r
                  (Message.Dm_commit { leader = t.index; ts; op = inst.op }))
            (replicas t)
        else
          Array.iteri
            (fun i r ->
              if i <> t.index then
                send t ~dst:r
                  (Message.Dm_accept { leader = t.index; ts; op = inst.op }))
            (replicas t))
    t.dm_pending

(* --- Dispatch --- *)

let handle t ~src msg =
  match msg with
  | Message.Probe_req req -> answer_probe t ~src req
  | Message.Probe_rep reply -> on_probe_reply t ~src reply
  | Message.Dfp_propose { ts; op } -> dfp_on_propose t op ~ts
  | Message.Dfp_p2a { ts; value } -> dfp_on_p2a t ~ts ~value
  | Message.Dfp_commit { ts; value; seq } -> dfp_on_commit t ~ts ~value ~seq
  | Message.Dfp_decided_watermark { upto; seq; resync; complete } ->
    dfp_on_decided_watermark t ~upto ~seq ~resync ~complete
  | Message.Dfp_vote { ts; report; _ } when t.cfg.Config.every_replica_learns
    ->
    learner_on_vote t ~ts ~report
  | Message.Dm_request op -> dm_propose t op
  | Message.Dm_accept { leader; ts; op } -> dm_on_accept t ~leader ~ts ~op
  | Message.Dm_accepted { ts; _ } -> dm_on_accepted t ~ts
  | Message.Dm_commit { leader; ts; op } -> dm_on_commit t ~leader ~ts ~op
  | Message.Dm_commit_ack { ts; acceptor; _ } ->
    dm_on_commit_ack t ~ts ~acceptor
  | Message.Dm_watermark { leader; upto } -> dm_on_watermark t ~leader ~upto
  | Message.Dfp_vote _ | Message.Dfp_p2b _ | Message.Dfp_pull _
  | Message.Replica_heartbeat _ | Message.Dfp_slow_reply _
  | Message.Dm_reply _ ->
    (* Coordinator traffic (routed by Domino.create) or client replies
       that never target replicas. *)
    ()

(* --- wipe-restart recovery --- *)

let make_exec t =
  Exec_engine.create ~n_lanes:(Config.n t.cfg + 1) ~on_exec:(fun _pos op ->
      if not t.replaying then
        t.observer.Observer.on_execute ~replica:t.self op ~now:(now_engine t))

let make_estimator cfg ~index =
  Estimator.create ~window:cfg.Config.window ~percentile:cfg.Config.percentile
    ~self:index ~n_replicas:(Config.n cfg) ()

let wipe_volatile t =
  t.estimator <- make_estimator t.cfg ~index:t.index;
  t.exec <- make_exec t;
  t.dfp_accepted <- Tsmap.empty;
  t.dfp_dseq <- 0;
  (* A rebooted acceptor missed an unknown stretch of the decision
     stream: distrust broadcast watermarks until a complete resync. *)
  t.dfp_synced <- false;
  t.dfp_wm_logged <- -1;
  t.dm_cursor <- -1;
  t.dm_pending <- Tsmap.empty;
  t.dm_watermark_sent <- -1;
  Postbl.reset t.dm_commit_seen;
  Array.fill t.dm_wm_logged 0 (Array.length t.dm_wm_logged) (-1);
  Hashtbl.reset t.learner_counts

let replay_record t record =
  match record with
  | Accepted { ts; op } -> t.dfp_accepted <- Tsmap.add ts op t.dfp_accepted
  | Decided { ts; value } -> dfp_commit_now t ~ts ~value
  | Decided_wm upto ->
    t.dfp_wm_logged <- Stdlib.max t.dfp_wm_logged upto;
    dfp_apply_watermark_now t ~upto
  | Dm_proposed { ts; op } ->
    t.dm_cursor <- Stdlib.max t.dm_cursor ts;
    (* Replayed as uncommitted: the retransmission timer re-drives the
       accept round, which is idempotent at the acceptors and decides
       the same (ts, op). *)
    t.dm_pending <-
      Tsmap.add ts
        {
          op;
          acks = 1;
          committed = false;
          commit_acks = 0;
        n_commit_acks = 0;
          opened = now_engine t;
        }
        t.dm_pending
  | Dm_committed { lane; ts; op } ->
    Postbl.replace t.dm_commit_seen (lane, ts) ();
    Exec_engine.decide_op t.exec { Position.ts; lane } op
  | Dm_wm { lane; upto } ->
    if upto > t.dm_wm_logged.(lane) then begin
      t.dm_wm_logged.(lane) <- upto;
      Exec_engine.set_watermark t.exec ~lane upto
    end
  | _ -> () (* a co-located coordinator's records; not ours *)

let set_replaying t flag = t.replaying <- flag

let create ~net ~cfg ~index ~observer ~store () =
  let n = Config.n cfg in
  let t =
    {
      net;
      cfg;
      self = cfg.Config.replicas.(index);
      index;
      estimator = make_estimator cfg ~index;
      exec = Exec_engine.create ~n_lanes:(n + 1) ~on_exec:(fun _ _ -> ());
      observer;
      dfp_accepted = Tsmap.empty;
      dfp_dseq = 0;
      dfp_synced = true;
      dfp_wm_logged = -1;
      dm_cursor = -1;
      dm_pending = Tsmap.empty;
      dm_watermark_sent = -1;
      dm_commit_seen = Postbl.create 256;
      dm_wm_logged = Array.make n (-1);
      learner_counts = Hashtbl.create 256;
      probe_seq = 0;
      store;
      replaying = false;
    }
  in
  t.exec <- make_exec t;
  let engine = Fifo_net.engine net in
  ignore
    (Engine.every engine ~jitter:(Time_ns.us 500)
       ~interval:cfg.Config.probe_interval (fun () -> send_probes t));
  ignore
    (Engine.every engine ~jitter:(Time_ns.us 500)
       ~interval:cfg.Config.heartbeat_interval (fun () -> send_heartbeat t));
  ignore
    (Engine.every engine ~interval:(Time_ns.ms 300) (fun () -> retransmit t));
  t

type storage_stats = { decisions_held : int; dfp_positions_covered : int }

let storage_stats t =
  {
    decisions_held =
      Exec_engine.pending_ops t.exec + Exec_engine.executed_held t.exec;
    dfp_positions_covered = dfp_covered t + 1;
  }

let late_decisions t = Exec_engine.late_decisions t.exec

let exec_frontier_lane_watermark t ~lane = Exec_engine.watermark t.exec ~lane
