open Domino_sim
open Domino_net
open Domino_smr
open Domino_log
module Store = Domino_store.Store

type msg =
  | Request of Op.t
  | Accept of { slot : int; op : Op.t }
  | Accepted of { slot : int; acceptor : Nodeid.t }
  | Skip of { owner_lane : int; upto_k : int }
      (** the owner's lane positions with index < [upto_k] and no
          explicit proposal are no-ops *)
  | Reply of { op : Op.t }

type proposal = {
  op : Op.t;
  mutable acks : Nodeid.Set.t;
  mutable committed : bool;  (** majority acknowledged *)
  mutable ordered : bool;  (** all earlier slots decided at the owner *)
  mutable replied : bool;
  opened : Time_ns.t;
}

module Imap = Map.Make (Int)

(* WAL records, per replica (journal kinds in quotes):
   - "prop": owner, synced before the Accept broadcast and the local
     decision — an amnesiac owner must re-propose the same value into
     the same slot;
   - "acc": acceptor, synced before its Accepted ack and the local
     decision (an Accept is final in Mencius);
   - "skip": owner, synced before the Skip broadcast — the owner must
     never propose below a noop bound others learned;
   - "wm": acceptor, synced before the noop watermark advances —
     execution past a skip must survive a wipe;
   - "cmt": owner, plain append (rides the next group commit) marking
     its proposal majority-acknowledged, so replay does not
     double-count or re-announce old commits. *)
type Store.record +=
  | Proposed of { slot : int; op : Op.t }
  | Accepted_slot of { slot : int; op : Op.t }
  | Skipped of int
  | Skip_wm of { lane : int; upto_k : int }
  | Committed of int

type replica_state = {
  self : Nodeid.t;
  lane : int;  (** this replica's lane = its index in [replicas] *)
  mutable exec : Op.t Exec_engine.t;
  mutable next_k : int;  (** next unused index in own lane *)
  mutable proposals : proposal Imap.t;  (** own slot -> proposal *)
  own_by_id : (Op.id, proposal) Hashtbl.t;
  mutable skip_sent : int;  (** last [upto_k] broadcast *)
  acc_seen : (int, unit) Hashtbl.t;  (** foreign slots already persisted *)
  wm_seen : int array;  (** per owner lane, highest durable noop bound *)
}

type t = {
  net : msg Fifo_net.t;
  replicas : Nodeid.t array;
  n : int;
  majority : int;
  observer : Observer.t;
  mutable states : replica_state array;  (** indexed by lane *)
  coordinator_of : Nodeid.t -> Nodeid.t;
  (* Lease handoff: Requests whose coordinator is a key here are
     steered to the mapped replica instead — every replica can propose
     in its own lane, so redirecting new submissions is the whole
     handoff; in-flight proposals on the old lane still settle. *)
  steer : (Nodeid.t, Nodeid.t) Hashtbl.t;
  mutable committed_count : int;
  stores : Store.t array;  (** the replicas' WALs; see the record type *)
  replaying : bool array;
}

let now t = Engine.now (Fifo_net.engine t.net)

let slot_of ~n ~lane ~k = (k * n) + lane
let k_of ~n slot = slot / n
let owner_lane ~n slot = slot mod n

let broadcast t ~src msg =
  Array.iter (fun r -> Fifo_net.send t.net ~src ~dst:r msg) t.replicas

(* The skip bound an owner may announce: its cursor, held down by its
   oldest not-fully-acknowledged proposal. Holding the bound until
   every replica (not just a majority) has acknowledged keeps a skip
   from noop-blanketing a slot that a crashed replica has not yet
   learned — it would otherwise diverge from the others on recovery. *)
let maybe_broadcast_skip t st =
  let limit =
    match Imap.min_binding_opt st.proposals with
    | None -> st.next_k
    | Some (slot, _) -> Stdlib.min st.next_k (k_of ~n:t.n slot)
  in
  if limit > st.skip_sent && not t.replaying.(st.lane) then begin
    st.skip_sent <- limit;
    Store.append_sync t.stores.(st.lane) ~kind:"skip" (Skipped limit)
      (fun () ->
        broadcast t ~src:st.self (Skip { owner_lane = st.lane; upto_k = limit }))
  end

let apply_skip t lane_idx ~owner_lane ~upto_k =
  let st = t.states.(lane_idx) in
  (* The watermark opens noop-covered positions to execution, so it is
     externalizing state: sync it before it takes effect. *)
  if upto_k - 1 > st.wm_seen.(owner_lane) then begin
    st.wm_seen.(owner_lane) <- upto_k - 1;
    let apply () = Exec_engine.set_watermark st.exec ~lane:owner_lane (upto_k - 1) in
    if t.replaying.(lane_idx) then apply ()
    else
      Store.append_sync t.stores.(lane_idx) ~kind:"wm"
        (Skip_wm { lane = owner_lane; upto_k })
        apply
  end

(* The owner is the only proposer of its slots, so an accepted value is
   final in failure-free runs: replicas treat a received ACCEPT as the
   slot's decision — the optimization Mencius relies on to commit in
   two one-way delays plus the majority round at the owner. *)
let record_decision t lane_idx slot op =
  let st = t.states.(lane_idx) in
  Exec_engine.decide_op st.exec
    { Position.ts = k_of ~n:t.n slot; lane = owner_lane ~n:t.n slot }
    op

(* Seeing slot [s] proposed by another owner forces this replica to
   skip its own unused slots below [s] (Mencius' SKIP rule). *)
let advance_past t st slot =
  let own_next_slot = slot_of ~n:t.n ~lane:st.lane ~k:st.next_k in
  if own_next_slot < slot then begin
    (* Smallest k with slot_of k > slot. *)
    let k = ((slot - st.lane) / t.n) + 1 in
    st.next_k <- Stdlib.max st.next_k k;
    maybe_broadcast_skip t st
  end

let maybe_reply t st (p : proposal) =
  if p.committed && p.ordered && not p.replied then begin
    p.replied <- true;
    Hashtbl.remove st.own_by_id (Op.id p.op);
    Fifo_net.send t.net ~src:st.self ~dst:p.op.Op.client (Reply { op = p.op })
  end

let handle t lane_idx ~src:_ msg =
  let st = t.states.(lane_idx) in
  match msg with
  | Request op ->
    let slot = slot_of ~n:t.n ~lane:st.lane ~k:st.next_k in
    st.next_k <- st.next_k + 1;
    let p =
      {
        op;
        acks = Nodeid.Set.singleton st.self;
        committed = false;
        ordered = false;
        replied = false;
        opened = now t;
      }
    in
    st.proposals <- Imap.add slot p st.proposals;
    Hashtbl.replace st.own_by_id (Op.id op) p;
    Store.append_sync t.stores.(lane_idx) ~kind:"prop" (Proposed { slot; op })
      (fun () ->
        Array.iter
          (fun r ->
            if not (Nodeid.equal r st.self) then
              Fifo_net.send t.net ~src:st.self ~dst:r (Accept { slot; op }))
          t.replicas;
        (* The owner's own acceptance decides the slot locally. *)
        record_decision t lane_idx slot op)
  | Accept { slot; op } ->
    let ack () =
      Fifo_net.send t.net ~src:st.self
        ~dst:t.replicas.(owner_lane ~n:t.n slot)
        (Accepted { slot; acceptor = st.self })
    in
    if Hashtbl.mem st.acc_seen slot then ack () (* re-driven Accept *)
    else begin
      Hashtbl.replace st.acc_seen slot ();
      advance_past t st slot;
      Store.append_sync t.stores.(lane_idx) ~kind:"acc"
        (Accepted_slot { slot; op })
        (fun () ->
          ack ();
          record_decision t lane_idx slot op)
    end
  | Accepted { slot; acceptor } -> begin
    match Imap.find_opt slot st.proposals with
    | None -> ()
    | Some p ->
      p.acks <- Nodeid.Set.add acceptor p.acks;
      if (not p.committed) && Nodeid.Set.cardinal p.acks >= t.majority then begin
        p.committed <- true;
        t.committed_count <- t.committed_count + 1;
        ignore (Store.append t.stores.(lane_idx) ~kind:"cmt" (Committed slot));
        t.observer.Observer.on_phase ~node:st.self ~op:(Some p.op)
          ~name:"quorum_reached" ~dur:0 ~now:(now t);
        maybe_reply t st p
      end;
      (* Release the slot — and the skip bound it holds down — only
         once every replica has acknowledged it. *)
      if Nodeid.Set.cardinal p.acks = t.n then begin
        st.proposals <- Imap.remove slot st.proposals;
        maybe_broadcast_skip t st
      end
  end
  | Skip { owner_lane; upto_k } -> apply_skip t lane_idx ~owner_lane ~upto_k
  | Reply _ -> ()

let handle_client t ~src:_ msg =
  match msg with
  | Reply { op } -> t.observer.Observer.on_commit op ~now:(now t)
  | _ -> ()

(* --- wipe-restart recovery --- *)

let make_exec t lane =
  let self = t.replicas.(lane) in
  Exec_engine.create ~n_lanes:t.n ~on_exec:(fun _pos op ->
      let st = t.states.(lane) in
      if not t.replaying.(lane) then
        t.observer.Observer.on_execute ~replica:self op ~now:(now t);
      (* The owner reports the commit only when the op is both
         majority-acknowledged and decided in order (Mencius' delayed
         commit). *)
      match Hashtbl.find_opt st.own_by_id (Op.id op) with
      | Some p ->
        p.ordered <- true;
        maybe_reply t st p
      | None -> ())

let wipe t lane =
  let st = t.states.(lane) in
  st.exec <- make_exec t lane;
  st.next_k <- 0;
  st.proposals <- Imap.empty;
  Hashtbl.reset st.own_by_id;
  st.skip_sent <- 0;
  Hashtbl.reset st.acc_seen;
  Array.fill st.wm_seen 0 t.n (-1)

let replay_record t lane record =
  let st = t.states.(lane) in
  match record with
  | Proposed { slot; op } ->
    st.next_k <- Stdlib.max st.next_k (k_of ~n:t.n slot + 1);
    let p =
      {
        op;
        acks = Nodeid.Set.singleton st.self;
        committed = false;
        ordered = false;
        replied = false;
        opened = now t;
      }
    in
    st.proposals <- Imap.add slot p st.proposals;
    Hashtbl.replace st.own_by_id (Op.id op) p;
    record_decision t lane slot op
  | Accepted_slot { slot; op } ->
    Hashtbl.replace st.acc_seen slot ();
    advance_past t st slot;
    record_decision t lane slot op
  | Skipped k ->
    st.skip_sent <- Stdlib.max st.skip_sent k;
    st.next_k <- Stdlib.max st.next_k k
  | Skip_wm { lane = l; upto_k = k } ->
    if k - 1 > st.wm_seen.(l) then begin
      st.wm_seen.(l) <- k - 1;
      Exec_engine.set_watermark st.exec ~lane:l (k - 1)
    end
  | Committed slot -> begin
    match Imap.find_opt slot st.proposals with
    | Some p ->
      p.committed <- true;
      maybe_reply t st p
    | None -> ()
  end
  | _ -> ()

(* Mencius never snapshots: its log is the whole recovery state. *)
let replay t lane records =
  t.replaying.(lane) <- true;
  List.iter (replay_record t lane) records;
  t.replaying.(lane) <- false;
  (* The replayed cursor may be announceable now. *)
  maybe_broadcast_skip t t.states.(lane)

let classify : msg -> Msg_class.t = function
  | Request _ -> Msg_class.Proposal
  | Accept _ -> Msg_class.Replication
  | Accepted _ | Skip _ -> Msg_class.Ack
  | Reply _ -> Msg_class.Control

let op_of = function
  | Request op | Accept { op; _ } | Reply { op } -> Some op
  | Accepted _ | Skip _ -> None

let name = "mencius"

let create (env : Protocol_intf.Group.env) =
  let net = env.make_net ~classify ~op_of in
  let { Protocol_intf.Group.replicas; coordinator_of; observer; stores; _ } =
    env
  in
  let n = Array.length replicas in
  let t =
    {
      net;
      replicas;
      n;
      majority = Quorum.majority n;
      observer;
      states = [||];
      coordinator_of;
      steer = Hashtbl.create 4;
      committed_count = 0;
      stores;
      replaying = Array.make n false;
    }
  in
  t.states <-
    Array.init n (fun lane ->
        {
          self = replicas.(lane);
          lane;
          exec = make_exec t lane;
          next_k = 0;
          proposals = Imap.empty;
          own_by_id = Hashtbl.create 256;
          skip_sent = 0;
          acc_seen = Hashtbl.create 256;
          wm_seen = Array.make n (-1);
        });
  Array.iteri
    (fun lane r -> Fifo_net.set_handler net r (handle t lane))
    replicas;
  Durable.install net ~replicas ~stores ~wipe:(wipe t) ~replay:(replay t);
  for node = 0 to Fifo_net.size net - 1 do
    if not (Array.exists (Nodeid.equal node) replicas) then
      Fifo_net.set_handler net node (handle_client t)
  done;
  (* Robustness timer per owner: re-send Accept for proposals some
     replica has not acknowledged (its ack — or the Accept itself —
     died with a crash), and refresh the skip coverage so a recovered
     replica relearns noop bounds it missed. *)
  let engine = Fifo_net.engine net in
  Array.iteri
    (fun lane _ ->
      ignore
        (Engine.every engine ~interval:(Time_ns.ms 200) (fun () ->
             let st = t.states.(lane) in
             Imap.iter
               (fun slot p ->
                 if Time_ns.diff (now t) p.opened > Time_ns.ms 400 then
                   Array.iter
                     (fun r ->
                       if not (Nodeid.Set.mem r p.acks) then
                         Fifo_net.send net ~src:st.self ~dst:r
                           (Accept { slot; op = p.op }))
                     t.replicas)
               st.proposals;
             if st.skip_sent > 0 then
               broadcast t ~src:st.self
                 (Skip { owner_lane = st.lane; upto_k = st.skip_sent }))))
    replicas;
  t

let submit t (op : Op.t) =
  t.observer.Observer.on_submit op ~now:(now t);
  let dst = t.coordinator_of op.Op.client in
  let dst =
    match Hashtbl.find_opt t.steer dst with Some d -> d | None -> dst
  in
  Fifo_net.send t.net ~src:op.Op.client ~dst (Request op)

let committed_count t = t.committed_count

let fast_slow_counts _ = None
let extra_stats _ = []
let gauges _ = []

let control t c ~k =
  match c with
  | Protocol_intf.Transfer { from_; to_ } ->
    if
      Array.exists (Nodeid.equal from_) t.replicas
      && Array.exists (Nodeid.equal to_) t.replicas
    then begin
      Hashtbl.replace t.steer from_ to_;
      k ();
      true
    end
    else false
  | Protocol_intf.Restore { node } ->
    Hashtbl.remove t.steer node;
    k ();
    true
