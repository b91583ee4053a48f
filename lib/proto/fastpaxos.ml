open Domino_sim
open Domino_net
open Domino_smr
open Domino_log
module Store = Domino_store.Store

module Imap = Map.Make (Int)
module Islot = Set.Make (Int)

type msg =
  | Propose of Op.t  (** client -> every acceptor *)
  | Vote of { slot : int; op : Op.t; acceptor : Nodeid.t }
      (** fast round-0 vote, acceptor -> coordinator and client *)
  | P2a of { slot : int; value : Op.t option }  (** recovery round 1 *)
  | P2b of { slot : int; acceptor : Nodeid.t }
  | Commit of { slot : int; value : Op.t option }
  | Pull of { from : int }
      (** replica -> coordinator: resend decided commits from this slot *)
  | Reply of { op : Op.t }  (** coordinator -> client, slow path result *)

(* WAL records (journal kinds in quotes):
   - "vote": acceptor, synced before its round-0 Vote — an amnesiac
     acceptor must never double-vote a slot nor reuse one;
   - "p2a": acceptor, synced before its P2b ack;
   - "dec": coordinator, synced before the decision is revealed (Commit
     broadcast / Reply);
   - "reco": coordinator, synced before the round-1 P2a — the recovery
     value must not change across a wipe;
   - "cmt": every replica, synced before execution. *)
type Store.record +=
  | Voted of { slot : int; op : Op.t }
  | Accepted_r1 of { slot : int; value : Op.t option }
  | Decided of { slot : int; value : Op.t option; fast : bool }
  | Recovering of { slot : int; value : Op.t option }
  | Committed of { slot : int; value : Op.t option }

type acceptor_state = {
  self : Nodeid.t;
  idx : int;
  mutable next_free : int;
  mutable voted : (int * Op.t * Time_ns.t) Imap.t;
      (** slot -> (round, op, voted at); entries are dropped once the
          slot's Commit arrives, so what remains is what may need
          re-sending after a coordinator crash ate the original vote *)
}

type slot_tally = {
  mutable votes : (Nodeid.t * Op.t) list;  (** round-0 reports, arrival order *)
  mutable p2b : Nodeid.Set.t;
  mutable recovering : Op.t option option;  (** round-1 value if started *)
  mutable reco_durable : bool;
      (** the "reco" record is synced; gates round-1 re-drives *)
  mutable decided : bool;
  mutable durable : bool;  (** the "dec" record is synced; gates resends *)
  mutable value : Op.t option;  (** the decided value, kept for catch-up *)
  mutable opened : Time_ns.t;  (** when the coordinator first saw this slot *)
}

type t = {
  net : msg Fifo_net.t;
  replicas : Nodeid.t array;
  coordinator : Nodeid.t;
  coord_idx : int;
  observer : Observer.t;
  n : int;
  majority : int;
  supermajority : int;
  (* Coordinator learner state. *)
  mutable tallies : slot_tally Imap.t;
  mutable undecided_slots : Islot.t;
  mutable committed_ops : Op.Idset.t;
  mutable op_slots : int list Op.Idmap.t;  (** op -> slots it was voted at *)
  mutable ops_seen : Op.t Op.Idmap.t;
  mutable max_slot : int;
  mutable reproposed : Op.Idset.t;
  (* Acceptors, indexed by replica position. *)
  acceptors : acceptor_state array;
  (* Execution in slot order per replica, one lane of dense slots; its
     pending decisions are evidence of a gap below them. *)
  execs : Op.t Exec_engine.t array;
  (* Client-side fast learning: (client view) slot -> votes for its op. *)
  mutable client_votes : Nodeid.Set.t Imap.t Op.Idmap.t;
  mutable fast : int;
  mutable slow : int;
  stores : Store.t array;  (** the replicas' WALs; see the record type *)
  replaying : bool array;
}

let now t = Engine.now (Fifo_net.engine t.net)

let broadcast t ~src msg =
  Array.iter (fun r -> Fifo_net.send t.net ~src ~dst:r msg) t.replicas

let tally t slot =
  match Imap.find_opt slot t.tallies with
  | Some tl -> tl
  | None ->
    let tl =
      {
        votes = [];
        p2b = Nodeid.Set.empty;
        recovering = None;
        reco_durable = false;
        decided = false;
        durable = false;
        value = None;
        opened = now t;
      }
    in
    t.tallies <- Imap.add slot tl t.tallies;
    t.undecided_slots <- Islot.add slot t.undecided_slots;
    tl

(* --- Execution (slot order at every replica) --- *)

(* A slot replica [idx] holds decided: executed, or parked behind a
   gap. *)
let decided t idx slot =
  let exec = t.execs.(idx) in
  slot <= Exec_engine.covered exec ~lane:0
  || Exec_engine.is_pending exec { Position.ts = slot; lane = 0 }

let deliver_commit_now t idx slot value =
  let st = t.acceptors.(idx) in
  st.voted <- Imap.remove slot st.voted;
  let exec = t.execs.(idx) in
  (match value with
  | Some op -> Exec_engine.decide_op exec { Position.ts = slot; lane = 0 } op
  | None -> Exec_engine.decide_noop exec { Position.ts = slot; lane = 0 });
  (* Watermark = the contiguous decided prefix, so the engine can prune
     the executed slots it holds. *)
  Exec_engine.set_watermark exec ~lane:0 (Exec_engine.covered exec ~lane:0)

let deliver_commit t idx slot value =
  (* Commits may be re-delivered through pulls and late broadcasts;
     only the first one is persisted and applied. *)
  if not (decided t idx slot) then
    if t.replaying.(idx) then deliver_commit_now t idx slot value
    else
      Store.append_sync t.stores.(idx) ~kind:"cmt" (Committed { slot; value })
        (fun () -> deliver_commit_now t idx slot value)

(* --- Coordinator logic --- *)

(* Round-1 proposals fix the recovery value first in volatile state
   (so the pick never changes under concurrent arrivals), then on disk
   (so it never changes across a wipe), and only then on the wire. *)
let send_recovery t slot (tl : slot_tally) value =
  tl.recovering <- Some value;
  Store.append_sync t.stores.(t.coord_idx) ~kind:"reco"
    (Recovering { slot; value })
    (fun () ->
      tl.reco_durable <- true;
      broadcast t ~src:t.coordinator (P2a { slot; value }))

(* Re-propose [op] in a fresh classic-round slot once it has lost every
   slot it was voted into — without this a losing client would hang
   forever. *)
let rescue_if_lost t (op : Op.t) =
  let id = Op.id op in
  let slots =
    match Op.Idmap.find_opt id t.op_slots with Some s -> s | None -> []
  in
  if
    (not (Op.Idset.mem id t.committed_ops))
    && (not (Op.Idset.mem id t.reproposed))
    && List.for_all
         (fun s ->
           match Imap.find_opt s t.tallies with
           | Some stl -> stl.decided
           | None -> false)
         slots
  then begin
    t.reproposed <- Op.Idset.add id t.reproposed;
    t.max_slot <- t.max_slot + 1;
    let slot = t.max_slot in
    let fresh = tally t slot in
    send_recovery t slot fresh (Some op)
  end

let commit_slot t slot value ~fast_path =
  let tl = tally t slot in
  if not tl.decided then begin
    tl.decided <- true;
    tl.value <- value;
    t.undecided_slots <- Islot.remove slot t.undecided_slots;
    if fast_path then t.fast <- t.fast + 1 else t.slow <- t.slow + 1;
    t.observer.Observer.on_phase ~node:t.coordinator ~op:value
      ~name:(if fast_path then "fast_commit" else "slow_commit")
      ~dur:0 ~now:(now t);
    let fresh_commit =
      match value with
      | Some op when not (Op.Idset.mem (Op.id op) t.committed_ops) ->
        t.committed_ops <- Op.Idset.add (Op.id op) t.committed_ops;
        true
      | _ -> false
    in
    Store.append_sync t.stores.(t.coord_idx) ~kind:"dec"
      (Decided { slot; value; fast = fast_path })
      (fun () ->
        tl.durable <- true;
        broadcast t ~src:t.coordinator (Commit { slot; value });
        (match value with
        | Some op when fresh_commit ->
          (* The client may already have learned a fast commit; the
             recorder deduplicates. *)
          Fifo_net.send t.net ~src:t.coordinator ~dst:op.Op.client
            (Reply { op })
        | _ -> ());
        (* If this slot was carrying a rescued/recovered operation that
           just lost to a competing round-0 value, put it back in play. *)
        match tl.recovering with
        | Some (Some op')
          when (match value with
               | Some w -> Op.compare_id (Op.id w) (Op.id op') <> 0
               | None -> true)
               && not (Op.Idset.mem (Op.id op') t.committed_ops) ->
          t.reproposed <- Op.Idset.remove (Op.id op') t.reproposed;
          rescue_if_lost t op'
        | _ -> ())
  end

(* The Fast Paxos coordinated-recovery value rule: inside the first
   classic quorum Q of round-0 reports, any value voted by at least
   q + m - n (= q - f) members of Q may have been chosen and must be
   picked; otherwise any reported value is safe (we take the
   most-voted to resolve as many operations as possible). *)
let recovery_pick t (tl : slot_tally) =
  let q_reports =
    List.filteri (fun i _ -> i < t.majority) (List.rev tl.votes)
  in
  let threshold = t.supermajority + t.majority - t.n in
  let counts =
    List.fold_left
      (fun acc (_, op) ->
        let id = Op.id op in
        let c = match Op.Idmap.find_opt id acc with Some (c, _) -> c | None -> 0 in
        Op.Idmap.add id (c + 1, op) acc)
      Op.Idmap.empty q_reports
  in
  let best =
    Op.Idmap.fold
      (fun _ (c, op) acc ->
        match acc with
        | Some (bc, _) when bc >= c -> acc
        | _ -> Some (c, op))
      counts None
  in
  match best with
  | Some (c, op) when c >= threshold -> Some op
  | Some (_, op) -> Some op
  | None -> None (* a timed-out slot nobody voted: fill with no-op *)

let start_recovery t slot =
  let tl = tally t slot in
  if (not tl.decided) && tl.recovering = None then
    send_recovery t slot tl (recovery_pick t tl)

(* Only operations that participated in the just-decided slot can
   newly become lost, so the check is local to that slot's voters. *)
let rescue_lost_ops t (tl : slot_tally) =
  List.sort_uniq Op.compare_id (List.map (fun (_, op) -> Op.id op) tl.votes)
  |> List.iter (fun id -> rescue_if_lost t (Op.Idmap.find id t.ops_seen))

let coordinator_on_vote t ~slot ~(op : Op.t) ~acceptor =
  t.max_slot <- Stdlib.max t.max_slot slot;
  let id = Op.id op in
  if not (Op.Idmap.mem id t.ops_seen) then
    t.ops_seen <- Op.Idmap.add id op t.ops_seen;
  let slots =
    match Op.Idmap.find_opt id t.op_slots with Some s -> s | None -> []
  in
  if not (List.mem slot slots) then
    t.op_slots <- Op.Idmap.add id (slot :: slots) t.op_slots;
  let tl = tally t slot in
  (* A vote that arrives after its slot was decided may reveal a lost
     operation (its other slots may all be settled). *)
  if tl.decided then rescue_if_lost t op
  else begin
    if not (List.exists (fun (a, _) -> Nodeid.equal a acceptor) tl.votes) then
      tl.votes <- (acceptor, op) :: tl.votes;
    (* Count round-0 votes per op. *)
    let counts =
      List.fold_left
        (fun acc (_, vop) ->
          let vid = Op.id vop in
          let c = match Op.Idmap.find_opt vid acc with Some c -> c | None -> 0 in
          Op.Idmap.add vid (c + 1) acc)
        Op.Idmap.empty tl.votes
    in
    let best = Op.Idmap.fold (fun _ c acc -> Stdlib.max c acc) counts 0 in
    let winner =
      Op.Idmap.fold
        (fun vid c acc -> if c >= t.supermajority then Some vid else acc)
        counts None
    in
    (match winner with
    | Some vid ->
      let wop = Op.Idmap.find vid t.ops_seen in
      commit_slot t slot (Some wop) ~fast_path:true
    | None ->
      let remaining = t.n - List.length tl.votes in
      if best + remaining < t.supermajority then start_recovery t slot);
    if tl.decided then rescue_lost_ops t tl
  end

let coordinator_on_p2b t ~slot ~acceptor =
  let tl = tally t slot in
  tl.p2b <- Nodeid.Set.add acceptor tl.p2b;
  match tl.recovering with
  | Some value when (not tl.decided) && Nodeid.Set.cardinal tl.p2b >= t.majority
    ->
    commit_slot t slot value ~fast_path:false;
    rescue_lost_ops t tl
  | _ -> ()

(* --- Acceptor logic --- *)

let acceptor_on_propose t (st : acceptor_state) (op : Op.t) =
  let slot = st.next_free in
  st.next_free <- slot + 1;
  st.voted <- Imap.add slot (0, op, now t) st.voted;
  Store.append_sync t.stores.(st.idx) ~kind:"vote" (Voted { slot; op })
    (fun () ->
      let vote = Vote { slot; op; acceptor = st.self } in
      Fifo_net.send t.net ~src:st.self ~dst:t.coordinator vote;
      Fifo_net.send t.net ~src:st.self ~dst:op.Op.client vote)

let acceptor_on_p2a t (st : acceptor_state) ~slot ~value =
  (* Round 1 overrides any round-0 vote; there is a single coordinator,
     so no promise bookkeeping is needed. *)
  let ack () =
    Fifo_net.send t.net ~src:st.self ~dst:t.coordinator
      (P2b { slot; acceptor = st.self })
  in
  let already =
    match (Imap.find_opt slot st.voted, value) with
    | Some (1, v, _), Some op -> Op.compare_id (Op.id v) (Op.id op) = 0
    | _, None -> true (* a no-op round 1 changes no acceptor state *)
    | _ -> false
  in
  if already then ack ()
  else begin
    (match value with
    | Some op -> st.voted <- Imap.add slot (1, op, now t) st.voted
    | None -> ());
    Store.append_sync t.stores.(st.idx) ~kind:"p2a"
      (Accepted_r1 { slot; value })
      ack
  end

(* --- Client-side fast learning --- *)

let client_on_vote t ~slot ~(op : Op.t) ~acceptor =
  let id = Op.id op in
  let slots =
    match Op.Idmap.find_opt id t.client_votes with
    | Some m -> m
    | None -> Imap.empty
  in
  let votes =
    match Imap.find_opt slot slots with
    | Some s -> s
    | None -> Nodeid.Set.empty
  in
  let votes = Nodeid.Set.add acceptor votes in
  t.client_votes <- Op.Idmap.add id (Imap.add slot votes slots) t.client_votes;
  if Nodeid.Set.cardinal votes >= t.supermajority then
    t.observer.Observer.on_commit op ~now:(now t)

(* --- wipe-restart recovery --- *)

let fresh_exec t i =
  let r = t.replicas.(i) in
  Exec_engine.create ~n_lanes:1 ~on_exec:(fun _pos op ->
      if not t.replaying.(i) then
        t.observer.Observer.on_execute ~replica:r op ~now:(now t))

let wipe t i =
  let st = t.acceptors.(i) in
  st.next_free <- 0;
  st.voted <- Imap.empty;
  t.execs.(i) <- fresh_exec t i;
  if i = t.coord_idx then begin
    t.tallies <- Imap.empty;
    t.undecided_slots <- Islot.empty;
    t.committed_ops <- Op.Idset.empty;
    t.op_slots <- Op.Idmap.empty;
    t.ops_seen <- Op.Idmap.empty;
    t.max_slot <- -1;
    t.reproposed <- Op.Idset.empty;
    t.fast <- 0;
    t.slow <- 0
  end

let replay_record t i record =
  let st = t.acceptors.(i) in
  match record with
  | Voted { slot; op } ->
    st.voted <- Imap.add slot (0, op, now t) st.voted;
    st.next_free <- Stdlib.max st.next_free (slot + 1)
  | Accepted_r1 { slot; value = Some op } ->
    st.voted <- Imap.add slot (1, op, now t) st.voted;
    st.next_free <- Stdlib.max st.next_free (slot + 1)
  | Committed { slot; value } ->
    if not (decided t i slot) then deliver_commit_now t i slot value
  | Decided { slot; value; fast } when i = t.coord_idx ->
    let tl = tally t slot in
    if not tl.decided then begin
      tl.decided <- true;
      tl.durable <- true;
      tl.value <- value;
      t.undecided_slots <- Islot.remove slot t.undecided_slots;
      if fast then t.fast <- t.fast + 1 else t.slow <- t.slow + 1;
      t.max_slot <- Stdlib.max t.max_slot slot;
      match value with
      | Some op ->
        t.committed_ops <- Op.Idset.add (Op.id op) t.committed_ops;
        t.ops_seen <- Op.Idmap.add (Op.id op) op t.ops_seen
      | None -> ()
    end
  | Recovering { slot; value } when i = t.coord_idx ->
    let tl = tally t slot in
    if not tl.decided then begin
      tl.recovering <- Some value;
      tl.reco_durable <- true;
      t.max_slot <- Stdlib.max t.max_slot slot;
      match value with
      | Some op ->
        t.reproposed <- Op.Idset.add (Op.id op) t.reproposed;
        t.ops_seen <- Op.Idmap.add (Op.id op) op t.ops_seen
      | None -> ()
    end
  | _ -> ()

(* Fast Paxos never snapshots: its log is the whole recovery state. *)
let replay t i _snap records =
  t.replaying.(i) <- true;
  List.iter (replay_record t i) records;
  t.replaying.(i) <- false

let create ~net ~replicas ~coordinator ~observer ?stores () =
  let n = Array.length replicas in
  let stores =
    match stores with Some s -> s | None -> Durable.default_stores net ~replicas
  in
  let t =
    {
      net;
      replicas;
      coordinator;
      coord_idx = Durable.index_of replicas coordinator;
      observer;
      n;
      majority = Quorum.majority n;
      supermajority = Quorum.supermajority n;
      tallies = Imap.empty;
      undecided_slots = Islot.empty;
      committed_ops = Op.Idset.empty;
      op_slots = Op.Idmap.empty;
      ops_seen = Op.Idmap.empty;
      max_slot = -1;
      reproposed = Op.Idset.empty;
      acceptors =
        Array.mapi
          (fun idx r -> { self = r; idx; next_free = 0; voted = Imap.empty })
          replicas;
      execs = [||];
      client_votes = Op.Idmap.empty;
      fast = 0;
      slow = 0;
      stores;
      replaying = Array.make n false;
    }
  in
  let t = { t with execs = Array.init n (fresh_exec t) } in
  Durable.install net ~replicas ~stores ~wipe:(wipe t) ~replay:(replay t);
  (* Quiescence recovery: a slot some acceptors voted but that can no
     longer fill up naturally (e.g. the workload stopped) is recovered
     by the coordinator after a timeout comfortably above any RTT. *)
  let recovery_timeout = Time_ns.ms 500 in
  ignore
    (Engine.every (Fifo_net.engine net) ~interval:(Time_ns.ms 100) (fun () ->
         let cutoff = now t - recovery_timeout in
         Islot.iter
           (fun slot ->
             match Imap.find_opt slot t.tallies with
             | Some tl when (not tl.decided) && tl.opened < cutoff -> (
               match tl.recovering with
               | None -> start_recovery t slot
               | Some value when tl.reco_durable ->
                 (* The P2a round — or its P2bs — may have died with a
                    crashed node; re-drive it until the slot decides. *)
                 broadcast t ~src:t.coordinator (P2a { slot; value })
               | Some _ -> ())
             | _ -> ())
           t.undecided_slots));
  Array.iteri
    (fun idx r ->
      let st = t.acceptors.(idx) in
      let handler ~src msg =
        match msg with
        | Propose op -> acceptor_on_propose t st op
        | P2a { slot; value } -> acceptor_on_p2a t st ~slot ~value
        | Commit { slot; value } -> deliver_commit t idx slot value
        | Vote { slot; op; acceptor } when Nodeid.equal r t.coordinator ->
          coordinator_on_vote t ~slot ~op ~acceptor
        | P2b { slot; acceptor } when Nodeid.equal r t.coordinator ->
          coordinator_on_p2b t ~slot ~acceptor
        | Pull { from } when Nodeid.equal r t.coordinator ->
          (* Resend decided commits from the puller's frontier, skipping
             still-open slots (they will be broadcast when they decide).
             Capped so one pull never floods the link. *)
          let sent = ref 0 and slot = ref from in
          while !sent < 512 && !slot <= t.max_slot do
            (match Imap.find_opt !slot t.tallies with
            | Some tl when tl.decided && tl.durable ->
              Fifo_net.send t.net ~src:t.coordinator ~dst:src
                (Commit { slot = !slot; value = tl.value });
              incr sent
            | _ -> ());
            incr slot
          done
        | Vote _ | P2b _ | Pull _ | Reply _ -> ()
      in
      Fifo_net.set_handler net r handler)
    replicas;
  (* Robustness timers. Acceptor role: re-send round-0 votes whose slot
     never decided (a crashed coordinator ate the original). Learner
     role: pull missing commits whenever decided slots are parked behind
     a gap in the execution frontier. *)
  let engine = Fifo_net.engine net in
  Array.iteri
    (fun idx r ->
      ignore
        (Engine.every engine ~interval:(Time_ns.ms 250) (fun () ->
             let st = t.acceptors.(idx) in
             let sent = ref 0 in
             Imap.iter
               (fun slot (round, op, at) ->
                 if
                   round = 0 && !sent < 256
                   && Time_ns.diff (now t) at > Time_ns.ms 400
                 then begin
                   incr sent;
                   let vote = Vote { slot; op; acceptor = st.self } in
                   Fifo_net.send net ~src:st.self ~dst:t.coordinator vote;
                   Fifo_net.send net ~src:st.self ~dst:op.Op.client vote
                 end)
               st.voted;
             let exec = t.execs.(idx) in
             if Exec_engine.pending_ops exec > 0 then
               Fifo_net.send net ~src:r ~dst:t.coordinator
                 (Pull { from = Exec_engine.covered exec ~lane:0 + 1 }))))
    replicas;
  for node = 0 to Fifo_net.size net - 1 do
    if not (Array.exists (Nodeid.equal node) replicas) then
      Fifo_net.set_handler net node (fun ~src:_ msg ->
          match msg with
          | Vote { slot; op; acceptor } -> client_on_vote t ~slot ~op ~acceptor
          | Reply { op } -> t.observer.Observer.on_commit op ~now:(now t)
          | _ -> ())
  done;
  t

let submit t (op : Op.t) =
  t.observer.Observer.on_submit op ~now:(now t);
  broadcast t ~src:op.Op.client (Propose op)

let fast_commits t = t.fast

let slow_commits t = t.slow

let classify : msg -> Msg_class.t = function
  | Propose _ -> Msg_class.Proposal
  | Vote _ | P2b _ -> Msg_class.Ack
  | P2a _ -> Msg_class.Replication
  | Commit _ -> Msg_class.Commit_notice
  | Reply _ | Pull _ -> Msg_class.Control

let op_of = function
  | Propose op | Vote { op; _ } | Reply { op } -> Some op
  | P2a { value; _ } | Commit { value; _ } -> value
  | P2b _ | Pull _ -> None

module Api = struct
  type nonrec t = t

  let name = "fastpaxos"

  let create (env : Protocol_intf.Group.env) =
    let open Protocol_intf in
    let net = env.Group.make_net () in
    instrument env ~name ~classify ~op_of net;
    create ~net ~replicas:env.Group.replicas ~coordinator:env.Group.leader
      ~observer:env.Group.observer ~stores:env.Group.stores ()

  let submit = submit
  let committed_count t = t.fast + t.slow
  let fast_slow_counts t = Some (t.fast, t.slow)
  let extra_stats _ = []
  let gauges _ = []

  (* The fast path broadcasts to every acceptor and the arbiter role is
     woven through the vote/P2a machinery — no graceful handoff here. *)
  let control _ _ ~k:_ = false
end
