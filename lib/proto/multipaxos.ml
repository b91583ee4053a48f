open Domino_sim
open Domino_net
open Domino_smr
open Domino_log
module Store = Domino_store.Store

type msg =
  | Request of Op.t
  | Accept of { slot : int; op : Op.t }
  | Accepted of { slot : int; acceptor : Nodeid.t }
  | Commit of { slot : int; op : Op.t }
  | Reply of { op : Op.t }
  | Pull of { from : int }  (** catch-up: resend commits from this slot *)

(* WAL records (journal kinds in quotes):
   - "open": leader, synced before the Accept broadcast — the slot->op
     binding survives a leader wipe, so a re-driven slot can only
     re-decide the same value;
   - "acc": follower, synced before its Accepted ack — the classic
     promise-before-ack;
   - "dec": leader, on quorum (synced in the background: the binding is
     already durable via "open");
   - "cmt": every replica, synced before the op is parked/executed —
     execution is gated on durability, so replay reproduces exactly the
     executed prefix;
   - "applied": the snapshot's header only (see [encode]). *)
type Store.record +=
  | Opened of { slot : int; op : Op.t }
  | Acked of { slot : int; op : Op.t }
  | Decided of { slot : int; op : Op.t }
  | Committed of { slot : int; op : Op.t }
  | Applied of int

type slot_state = {
  op : Op.t;
  mutable acks : Nodeid.Set.t;
  mutable committed : bool;
  opened : Time_ns.t;
}

type t = {
  net : msg Fifo_net.t;
  replicas : Nodeid.t array;
  mutable leader : Nodeid.t;
  (* Graceful leader transfer: while draining, new Requests park in
     [pending_reqs] instead of opening slots, so the open-slot table can
     empty and the flip is clean even under load. *)
  mutable draining : bool;
  pending_reqs : Op.t Queue.t;
  (* Replicas with a catch-up Pull timer armed. The initial leader gets
     none (it never parks) until a transfer demotes it — creating the
     timer lazily keeps the fault-free event schedule, and hence the
     golden journals, byte-identical to the pre-transfer code. *)
  pull_timers : (Nodeid.t, unit) Hashtbl.t;
  observer : Observer.t;
  majority : int;
  (* Leader proposal state. *)
  mutable next_slot : int;
  slots : (int, slot_state) Hashtbl.t;
  (* Leader's record of every committed slot, kept for catch-up pulls
     from replicas that missed the original commit notice. *)
  committed_log : (int, Op.t) Hashtbl.t;
  (* Per-replica execution in slot order, one lane of dense slots. *)
  execs : Op.t Exec_engine.t array;
  stores : Store.t array;  (** the replicas' WALs; see the record type *)
  acc_seen : (int, unit) Hashtbl.t array;  (** follower slots already synced *)
  replaying : bool array;
  mutable committed_count : int;
}

let now t = Engine.now (Fifo_net.engine t.net)

let index_of t node = Durable.index_of t.replicas node

(* The next slot replica [i] will execute. *)
let next_to_apply t i = Exec_engine.covered t.execs.(i) ~lane:0 + 1

(* Commits normally arrive on the FIFO channel from the leader in slot
   order, but a replica that was crashed (or a slot that committed late
   after a retransmitted Accept) sees gaps and stragglers; the engine
   executes strictly contiguously — parking out-of-order commits until
   the gap fills via {!Pull} — which keeps every replica's history a
   prefix of the leader's. Raising the watermark to the executed prefix
   lets the engine prune the executed slots it holds. *)
let apply_commit_now t i slot op =
  if slot >= next_to_apply t i then begin
    let exec = t.execs.(i) in
    Exec_engine.decide_op exec { Position.ts = slot; lane = 0 } op;
    Exec_engine.set_watermark exec ~lane:0 (Exec_engine.covered exec ~lane:0)
  end

let apply_commit t node slot op =
  let idx = index_of t node in
  if slot >= next_to_apply t idx then
    if t.replaying.(idx) then apply_commit_now t idx slot op
    else
      Store.append_sync t.stores.(idx) ~kind:"cmt" (Committed { slot; op })
        (fun () -> apply_commit_now t idx slot op)

let handle_leader t ~src msg =
  match msg with
  | Request op when t.draining -> Queue.add op t.pending_reqs
  | Request op ->
    let slot = t.next_slot in
    t.next_slot <- slot + 1;
    t.observer.Observer.on_phase ~node:t.leader ~op:(Some op) ~name:"slot_assigned"
      ~dur:0 ~now:(now t);
    let state =
      {
        op;
        acks = Nodeid.Set.singleton t.leader;
        committed = false;
        opened = now t;
      }
    in
    Hashtbl.replace t.slots slot state;
    Store.append_sync t.stores.(index_of t t.leader) ~kind:"open"
      (Opened { slot; op })
      (fun () ->
        Array.iter
          (fun r ->
            if not (Nodeid.equal r t.leader) then
              Fifo_net.send t.net ~src:t.leader ~dst:r (Accept { slot; op }))
          t.replicas)
  | Accepted { slot; acceptor } -> begin
    match Hashtbl.find_opt t.slots slot with
    | None -> ()
    | Some state ->
      state.acks <- Nodeid.Set.add acceptor state.acks;
      if (not state.committed) && Nodeid.Set.cardinal state.acks >= t.majority
      then begin
        state.committed <- true;
        t.committed_count <- t.committed_count + 1;
        t.observer.Observer.on_phase ~node:t.leader ~op:(Some state.op)
          ~name:"quorum_reached" ~dur:0 ~now:(now t);
        Hashtbl.remove t.slots slot;
        Hashtbl.replace t.committed_log slot state.op;
        (* The slot->op binding is already durable ("open"), so the
           decision can be externalized before its own record syncs: a
           wiped leader re-drives the slot to the same value. *)
        Store.append_sync t.stores.(index_of t t.leader) ~kind:"dec"
          (Decided { slot; op = state.op })
          (fun () -> ());
        Fifo_net.send t.net ~src:t.leader ~dst:state.op.Op.client
          (Reply { op = state.op });
        Array.iter
          (fun r ->
            Fifo_net.send t.net ~src:t.leader ~dst:r
              (Commit { slot; op = state.op }))
          t.replicas
      end
  end
  | Commit { slot; op } -> apply_commit t t.leader slot op
  | Pull { from } ->
    (* Resend committed slots from the replica's execution frontier,
       stopping at the first still-open slot (it cannot execute past it
       anyway). Capped so one pull never floods the link. *)
    let rec go slot sent =
      if sent < 512 && slot < t.next_slot then
        match Hashtbl.find_opt t.committed_log slot with
        | Some op ->
          Fifo_net.send t.net ~src:t.leader ~dst:src (Commit { slot; op });
          go (slot + 1) (sent + 1)
        | None -> ()
    in
    go from 0
  | Accept _ | Reply _ -> ()

let handle_follower t self ~src:_ msg =
  match msg with
  | Accept { slot; op } ->
    let idx = index_of t self in
    let ack () =
      Fifo_net.send t.net ~src:self ~dst:t.leader
        (Accepted { slot; acceptor = self })
    in
    if Hashtbl.mem t.acc_seen.(idx) slot then ack ()
    else begin
      Hashtbl.replace t.acc_seen.(idx) slot ();
      Store.append_sync t.stores.(idx) ~kind:"acc" (Acked { slot; op }) ack
    end
  | Commit { slot; op } -> apply_commit t self slot op
  | Request _ | Accepted _ | Reply _ | Pull _ -> ()

let handle_client t ~src:_ msg =
  match msg with
  | Reply { op } -> t.observer.Observer.on_commit op ~now:(now t)
  | _ -> ()

(* --- wipe-restart recovery --- *)

let fresh_exec t i =
  let r = t.replicas.(i) in
  Exec_engine.create ~n_lanes:1 ~on_exec:(fun _pos op ->
      if not t.replaying.(i) then
        t.observer.Observer.on_execute ~replica:r op ~now:(now t))

(* The snapshot codec, the one place a WAL record is text: an
   "applied" header, then the leader's decided and open slots, one
   "<kind> <slot> <op>" line each. Its length is journaled
   ([store.snapshot … bytes=]), so the format is fixed. Decoding yields
   the log's own records, and replay treats both alike. *)
let encode t i =
  let node = t.replicas.(i) in
  let buf = Buffer.create 256 in
  let line kind slot op =
    Buffer.add_char buf '\n';
    Buffer.add_string buf (Printf.sprintf "%s %d %s" kind slot (Op.to_wire op))
  in
  Buffer.add_string buf (Printf.sprintf "applied %d" (next_to_apply t i));
  if Nodeid.equal node t.leader then begin
    Hashtbl.iter (fun slot op -> line "dec" slot op) t.committed_log;
    Hashtbl.iter
      (fun slot (state : slot_state) -> line "open" slot state.op)
      t.slots
  end;
  Buffer.contents buf

let decode blob =
  List.filter_map
    (fun line ->
      match String.split_on_char ' ' line with
      | [ "applied"; n ] -> Some (Applied (int_of_string n))
      | [ kind; s; w ] -> (
        match (kind, Op.of_wire w) with
        | "dec", Some op -> Some (Decided { slot = int_of_string s; op })
        | "open", Some op -> Some (Opened { slot = int_of_string s; op })
        | _ -> None)
      | _ -> None)
    (String.split_on_char '\n' blob)

let wipe t i =
  let node = t.replicas.(i) in
  if Nodeid.equal node t.leader then begin
    Hashtbl.reset t.slots;
    Hashtbl.reset t.committed_log;
    t.next_slot <- 0;
    t.committed_count <- 0
  end;
  Hashtbl.reset t.acc_seen.(i);
  t.execs.(i) <- fresh_exec t i

let replay_record t i record =
  let is_leader = Nodeid.equal t.replicas.(i) t.leader in
  match record with
  | Applied n -> Exec_engine.set_watermark t.execs.(i) ~lane:0 (n - 1)
  | Opened { slot; op } when is_leader ->
    t.next_slot <- Stdlib.max t.next_slot (slot + 1);
    if not (Hashtbl.mem t.committed_log slot) then
      Hashtbl.replace t.slots slot
        {
          op;
          acks = Nodeid.Set.singleton t.leader;
          committed = false;
          opened = now t;
        }
  | Decided { slot; op } when is_leader ->
    t.next_slot <- Stdlib.max t.next_slot (slot + 1);
    Hashtbl.remove t.slots slot;
    if not (Hashtbl.mem t.committed_log slot) then begin
      Hashtbl.replace t.committed_log slot op;
      t.committed_count <- t.committed_count + 1
    end
  | Acked { slot; _ } -> Hashtbl.replace t.acc_seen.(i) slot ()
  | Committed { slot; op } -> apply_commit_now t i slot op
  | _ -> ()

let replay t i snap records =
  t.replaying.(i) <- true;
  Option.iter (fun blob -> List.iter (replay_record t i) (decode blob)) snap;
  List.iter (replay_record t i) records;
  t.replaying.(i) <- false

(* Arm r's catch-up Pull timer, at most once per replica. The guard
   inside reads [t.leader] at fire time, so a replica that becomes
   leader stops pulling without tearing the timer down. *)
let ensure_pull_timer t r =
  if not (Hashtbl.mem t.pull_timers r) then begin
    Hashtbl.replace t.pull_timers r ();
    let i = index_of t r and engine = Fifo_net.engine t.net in
    ignore
      (Engine.every engine ~interval:(Time_ns.ms 250) (fun () ->
           if
             (not (Nodeid.equal r t.leader))
             && Exec_engine.pending_ops t.execs.(i) > 0
           then
             Fifo_net.send t.net ~src:r ~dst:t.leader
               (Pull { from = next_to_apply t i })))
  end

let create ~net ~replicas ~leader ~observer ?stores () =
  let n = Array.length replicas in
  let stores =
    match stores with Some s -> s | None -> Durable.default_stores net ~replicas
  in
  let t =
    {
      net;
      replicas;
      leader;
      draining = false;
      pending_reqs = Queue.create ();
      pull_timers = Hashtbl.create 8;
      observer;
      majority = Quorum.majority n;
      next_slot = 0;
      slots = Hashtbl.create 1024;
      committed_log = Hashtbl.create 1024;
      execs = [||];
      stores;
      acc_seen = Array.init n (fun _ -> Hashtbl.create 64);
      replaying = Array.make n false;
      committed_count = 0;
    }
  in
  let t = { t with execs = Array.init n (fresh_exec t) } in
  Array.iter
    (fun r ->
      if Nodeid.equal r leader then
        Fifo_net.set_handler net r (handle_leader t)
      else Fifo_net.set_handler net r (handle_follower t r))
    replicas;
  Durable.install net ~replicas ~stores ~wipe:(wipe t) ~replay:(replay t);
  Durable.auto_snapshot net ~replicas ~stores ~interval:(Time_ns.sec 1)
    ~encode:(encode t);
  (* Any node that is not a replica is a client of this protocol. *)
  for node = 0 to Fifo_net.size net - 1 do
    if not (Array.exists (Nodeid.equal node) replicas) then
      Fifo_net.set_handler net node (handle_client t)
  done;
  (* Robustness timers. Leader side: re-broadcast Accept for slots that
     have sat without a quorum (acks lost to a crashed acceptor).
     Follower side: pull missing commits whenever out-of-order commits
     are parked behind a gap. *)
  let engine = Fifo_net.engine net in
  (* Both timers read [t.leader] at fire time, so a leader transfer
     re-points them without re-arming. *)
  ignore
    (Engine.every engine ~interval:(Time_ns.ms 200) (fun () ->
         Hashtbl.iter
           (fun slot state ->
             if
               (not state.committed)
               && Time_ns.diff (now t) state.opened > Time_ns.ms 400
             then
               Array.iter
                 (fun r ->
                   if not (Nodeid.equal r t.leader) then
                     Fifo_net.send net ~src:t.leader ~dst:r
                       (Accept { slot; op = state.op }))
                 replicas)
           t.slots));
  Array.iter
    (fun r -> if not (Nodeid.equal r leader) then ensure_pull_timer t r)
    replicas;
  t

let submit t (op : Op.t) =
  t.observer.Observer.on_submit op ~now:(now t);
  Fifo_net.send t.net ~src:op.Op.client ~dst:t.leader (Request op)

(* Graceful leader handoff: stop opening slots, wait for every open
   slot to reach quorum (bounded by [Quiesce]'s deadline — an
   unreachable acceptor must not wedge the transfer), then flip
   [t.leader], swap the node handlers, and re-drive the requests parked
   during the drain through the new leader. In this simulation the
   proposal state lives on the shared [t], so the flip stands in for the
   state transfer a real handoff would perform. *)
let transfer t ~to_ ~k =
  if not (Array.exists (Nodeid.equal to_) t.replicas) then false
  else if Nodeid.equal t.leader to_ then begin
    k ();
    true
  end
  else begin
    t.draining <- true;
    Quiesce.await (Fifo_net.engine t.net)
      ~inflight:(fun () -> Hashtbl.length t.slots)
      (fun ~left:_ ->
        let old = t.leader in
        t.leader <- to_;
        t.observer.Observer.on_phase ~node:to_ ~op:None ~name:"leader_transfer"
          ~dur:0 ~now:(now t);
        Fifo_net.set_handler t.net old (handle_follower t old);
        Fifo_net.set_handler t.net to_ (handle_leader t);
        ensure_pull_timer t old;
        t.draining <- false;
        while not (Queue.is_empty t.pending_reqs) do
          handle_leader t ~src:to_ (Request (Queue.pop t.pending_reqs))
        done;
        k ());
    true
  end

let committed_count t = t.committed_count

let classify : msg -> Msg_class.t = function
  | Request _ -> Msg_class.Proposal
  | Accept _ -> Msg_class.Replication
  | Accepted _ -> Msg_class.Ack
  | Commit _ -> Msg_class.Commit_notice
  | Reply _ | Pull _ -> Msg_class.Control

let op_of = function
  | Request op | Accept { op; _ } | Commit { op; _ } | Reply { op } -> Some op
  | Accepted _ | Pull _ -> None

module Api = struct
  type nonrec t = t

  let name = "multipaxos"

  let create (env : Protocol_intf.Group.env) =
    let open Protocol_intf in
    let net = env.Group.make_net () in
    instrument env ~name ~classify ~op_of net;
    create ~net ~replicas:env.Group.replicas ~leader:env.Group.leader
      ~observer:env.Group.observer ~stores:env.Group.stores ()

  let submit = submit
  let committed_count = committed_count
  let fast_slow_counts _ = None
  let extra_stats _ = []
  let gauges _ = []

  let control t c ~k =
    match c with
    | Protocol_intf.Transfer { from_; to_ } ->
      if Nodeid.equal t.leader from_ then transfer t ~to_ ~k
      else begin
        (* Nothing to move: the named node holds no leadership. *)
        k ();
        true
      end
    | Protocol_intf.Restore _ ->
      (* Leadership stays where it was transferred; the restored node
         rejoins as a follower. *)
      k ();
      true
end
