open Domino_sim
open Domino_net
open Domino_smr
module Store = Domino_store.Store

type inst_id = { lane : int; iid : int }

module Instmap = Map.Make (struct
  type t = inst_id

  let compare a b =
    match Int.compare a.lane b.lane with
    | 0 -> Int.compare a.iid b.iid
    | c -> c
end)

type attrs = { seq : int; deps : inst_id list }

let union_deps a b =
  List.sort_uniq compare (List.rev_append a b)

let attrs_equal a b =
  a.seq = b.seq
  && List.sort_uniq compare a.deps = List.sort_uniq compare b.deps

type msg =
  | Request of Op.t
  | PreAccept of { inst : inst_id; op : Op.t; attrs : attrs }
  | PreAcceptOk of { inst : inst_id; attrs : attrs; acceptor : Nodeid.t }
  | MAccept of { inst : inst_id; op : Op.t; attrs : attrs }
  | MAcceptOk of { inst : inst_id; acceptor : Nodeid.t }
  | Commit of { inst : inst_id; op : Op.t; attrs : attrs }
  | CommitReq of { inst : inst_id }
      (** execution stalled on this instance: ask its owner to resend
          the Commit *)
  | Reply of { op : Op.t }

type status = Preaccepted | Accepted | Committed | Executed

(* WAL records, per replica: an instance's op and attributes as of one
   phase (journal kinds in quotes):
   - "own": leader, synced before the PreAccept round — an amnesiac
     leader must not reuse the instance id;
   - "pre": acceptor, first PreAccept only, synced before PreAcceptOk —
     the recorded attributes are the promise;
   - "macc": accept-round attributes (at the leader before MAccept goes
     out, at acceptors before MAcceptOk);
   - "cmt": synced before the commit is externalized (leader) or
     executed (everyone). *)
type phase = Own | Pre | Macc | Cmt

type Store.record +=
  | Instance of { phase : phase; inst : inst_id; op : Op.t; attrs : attrs }

type cmd = {
  op : Op.t;
  mutable attrs : attrs;
  mutable status : status;
}

type pending = {
  initial : attrs;
  mutable replies : (Nodeid.t * attrs) list;
      (** first PreAcceptOk per acceptor; retransmitted PreAccepts may
          re-merge against an advanced key table, so later replies from
          the same acceptor are ignored *)
  mutable acks : Nodeid.Set.t;  (** MAcceptOk senders (leader included) *)
  mutable in_accept : bool;
  opened : Time_ns.t;
}

type replica_state = {
  self : Nodeid.t;
  lane : int;
  mutable next_iid : int;
  mutable cmds : cmd Instmap.t;
  key_last : (int, inst_id * int) Hashtbl.t;
      (** key -> (latest interfering instance, its seq) *)
  mutable pending : pending Instmap.t;
  mutable waiters : inst_id list Instmap.t;
      (** dep -> instances whose execution waits on it *)
}

type t = {
  net : msg Fifo_net.t;
  replicas : Nodeid.t array;
  n : int;
  f : int;
  observer : Observer.t;
  coordinator_of : Nodeid.t -> Nodeid.t;
  mutable states : replica_state array;
  mutable fast : int;
  mutable slow : int;
  stores : Store.t array;  (** the replicas' WALs; see the record type *)
  replaying : bool array;
}

let now t = Engine.now (Fifo_net.engine t.net)

let persist t st phase ~inst ~op ~attrs k =
  let kind =
    match phase with Own -> "own" | Pre -> "pre" | Macc -> "macc" | Cmt -> "cmt"
  in
  Store.append_sync t.stores.(st.lane) ~kind
    (Instance { phase; inst; op; attrs })
    k

(* --- Attribute computation against the local interference table --- *)

let local_attrs st ~key ~exclude =
  match Hashtbl.find_opt st.key_last key with
  | Some (inst, seq) when inst <> exclude -> { seq = seq + 1; deps = [ inst ] }
  | _ -> { seq = 1; deps = [] }

let merge_attrs st ~key ~exclude (attrs : attrs) =
  let local = local_attrs st ~key ~exclude in
  { seq = Stdlib.max attrs.seq local.seq; deps = union_deps attrs.deps local.deps }

let note_instance st ~key ~inst ~seq =
  match Hashtbl.find_opt st.key_last key with
  | Some (_, s) when s >= seq -> ()
  | _ -> Hashtbl.replace st.key_last key (inst, seq)

(* --- Execution: dependency graph with SCCs in seq order --- *)

let add_waiter st ~dep ~inst =
  let cur =
    match Instmap.find_opt dep st.waiters with Some l -> l | None -> []
  in
  st.waiters <- Instmap.add dep (inst :: cur) st.waiters

(* Attempt to execute the dependency closure of [root]. Returns the
   instances executed (in order) or [] if blocked on an uncommitted
   dependency. Tarjan's algorithm over the committed subgraph; SCCs
   execute in reverse-topological order, members ordered by (seq, id). *)
let try_execute t st root =
  let module M = Instmap in
  let index = ref 0 in
  let indices = ref M.empty in
  let lowlink = ref M.empty in
  let on_stack = ref M.empty in
  let stack = ref [] in
  let sccs = ref [] in
  let blocked = ref false in
  let rec strongconnect v =
    let cmd = M.find v st.cmds in
    indices := M.add v !index !indices;
    lowlink := M.add v !index !lowlink;
    incr index;
    stack := v :: !stack;
    on_stack := M.add v true !on_stack;
    List.iter
      (fun dep ->
        if not !blocked then begin
          match M.find_opt dep st.cmds with
          | None ->
            add_waiter st ~dep ~inst:root;
            blocked := true
          | Some dcmd -> begin
            match dcmd.status with
            | Executed -> ()
            | Preaccepted | Accepted ->
              add_waiter st ~dep ~inst:root;
              blocked := true
            | Committed ->
              if not (M.mem dep !indices) then begin
                strongconnect dep;
                if not !blocked then
                  lowlink :=
                    M.add v
                      (Stdlib.min (M.find v !lowlink) (M.find dep !lowlink))
                      !lowlink
              end
              else if M.find_opt dep !on_stack = Some true then
                lowlink :=
                  M.add v
                    (Stdlib.min (M.find v !lowlink) (M.find dep !indices))
                    !lowlink
          end
        end)
      cmd.attrs.deps;
    if (not !blocked) && M.find v !lowlink = M.find v !indices then begin
      (* Pop the SCC. *)
      let rec pop acc =
        match !stack with
        | [] -> acc
        | w :: rest ->
          stack := rest;
          on_stack := M.add w false !on_stack;
          let acc = w :: acc in
          if w = v then acc else pop acc
      in
      sccs := pop [] :: !sccs
    end
  in
  (match M.find_opt root st.cmds with
  | Some { status = Committed; _ } -> strongconnect root
  | _ -> blocked := true);
  if !blocked then []
  else begin
    (* Tarjan emits SCCs in reverse topological order of the dependency
       DAG (dependencies first since deps are edges out of later ops):
       [sccs] currently has the root's SCC last; dependencies were
       completed (and consed) first, so execute in reverse list order. *)
    let ordered = List.rev !sccs in
    let executed = ref [] in
    List.iter
      (fun scc ->
        let members =
          List.sort
            (fun a b ->
              let ca = M.find a st.cmds and cb = M.find b st.cmds in
              match Int.compare ca.attrs.seq cb.attrs.seq with
              | 0 -> compare a b
              | c -> c)
            scc
        in
        List.iter
          (fun v ->
            let cmd = M.find v st.cmds in
            if cmd.status = Committed then begin
              cmd.status <- Executed;
              executed := v :: !executed;
              if not t.replaying.(st.lane) then
                t.observer.Observer.on_execute ~replica:st.self cmd.op
                  ~now:(now t)
            end)
          members)
      ordered;
    List.rev !executed
  end

let rec wake_waiters t st insts =
  List.iter
    (fun inst ->
      match Instmap.find_opt inst st.waiters with
      | None -> ()
      | Some waiting ->
        st.waiters <- Instmap.remove inst st.waiters;
        List.iter
          (fun w ->
            match Instmap.find_opt w st.cmds with
            | Some { status = Committed; _ } ->
              let executed = try_execute t st w in
              wake_waiters t st executed
            | _ -> ())
          waiting)
    insts

let record_commit t st ~inst ~op ~attrs =
  let cmd =
    match Instmap.find_opt inst st.cmds with
    | Some c ->
      c.attrs <- attrs;
      if c.status <> Executed then c.status <- Committed;
      c
    | None ->
      let c = { op; attrs; status = Committed } in
      st.cmds <- Instmap.add inst c st.cmds;
      c
  in
  note_instance st ~key:op.Op.key ~inst ~seq:attrs.seq;
  if cmd.status = Committed then begin
    let executed = try_execute t st inst in
    wake_waiters t st (inst :: executed)
  end

(* --- Leader logic --- *)

let broadcast_commit t st ~inst ~op ~attrs =
  persist t st Cmt ~inst ~op ~attrs (fun () ->
      Array.iter
        (fun r ->
          if not (Nodeid.equal r st.self) then
            Fifo_net.send t.net ~src:st.self ~dst:r (Commit { inst; op; attrs }))
        t.replicas;
      record_commit t st ~inst ~op ~attrs;
      Fifo_net.send t.net ~src:st.self ~dst:op.Op.client (Reply { op }))

let leader_on_request t st (op : Op.t) =
  let inst = { lane = st.lane; iid = st.next_iid } in
  st.next_iid <- st.next_iid + 1;
  let attrs = local_attrs st ~key:op.Op.key ~exclude:inst in
  st.cmds <- Instmap.add inst { op; attrs; status = Preaccepted } st.cmds;
  note_instance st ~key:op.Op.key ~inst ~seq:attrs.seq;
  st.pending <-
    Instmap.add inst
      {
        initial = attrs;
        replies = [];
        acks = Nodeid.Set.singleton st.self;
        in_accept = false;
        opened = now t;
      }
      st.pending;
  persist t st Own ~inst ~op ~attrs (fun () ->
      if t.n = 1 then broadcast_commit t st ~inst ~op ~attrs
      else
        Array.iter
          (fun r ->
            if not (Nodeid.equal r st.self) then
              Fifo_net.send t.net ~src:st.self ~dst:r
                (PreAccept { inst; op; attrs }))
          t.replicas)

let fast_quorum_peers t = (2 * t.f) - 1
(* peer replies needed so that, with the leader, 2f replicas agree *)

let leader_on_preaccept_ok t st ~inst ~acceptor ~(attrs : attrs) =
  match Instmap.find_opt inst st.pending with
  | None -> ()
  | Some p ->
    if (not p.in_accept) && not (List.mem_assoc acceptor p.replies) then begin
      p.replies <- (acceptor, attrs) :: p.replies;
      let needed = fast_quorum_peers t in
      if List.length p.replies >= needed then begin
        let cmd = Instmap.find inst st.cmds in
        if cmd.status = Preaccepted then begin
          let all_match =
            List.for_all (fun (_, a) -> attrs_equal a p.initial) p.replies
          in
          if all_match then begin
            t.fast <- t.fast + 1;
            t.observer.Observer.on_phase ~node:st.self ~op:(Some cmd.op)
              ~name:"fast_commit" ~dur:0 ~now:(now t);
            st.pending <- Instmap.remove inst st.pending;
            broadcast_commit t st ~inst ~op:cmd.op ~attrs:p.initial
          end
          else begin
            (* Union attributes and run the accept round. *)
            let attrs =
              List.fold_left
                (fun acc (_, a) ->
                  {
                    seq = Stdlib.max acc.seq a.seq;
                    deps = union_deps acc.deps a.deps;
                  })
                p.initial p.replies
            in
            p.in_accept <- true;
            p.acks <- Nodeid.Set.singleton st.self;
            cmd.attrs <- attrs;
            cmd.status <- Accepted;
            (* The union attributes are this leader's accept-round
               proposal; they must survive a wipe or a re-driven round
               could propose a different union. *)
            persist t st Macc ~inst ~op:cmd.op ~attrs (fun () ->
                Array.iter
                  (fun r ->
                    if not (Nodeid.equal r st.self) then
                      Fifo_net.send t.net ~src:st.self ~dst:r
                        (MAccept { inst; op = cmd.op; attrs }))
                  t.replicas)
          end
        end
      end
    end

let leader_on_accept_ok t st ~inst ~acceptor =
  match Instmap.find_opt inst st.pending with
  | None -> ()
  | Some p ->
    if p.in_accept then begin
      p.acks <- Nodeid.Set.add acceptor p.acks;
      if Nodeid.Set.cardinal p.acks >= t.f + 1 then begin
        let cmd = Instmap.find inst st.cmds in
        if cmd.status = Accepted then begin
          t.slow <- t.slow + 1;
          t.observer.Observer.on_phase ~node:st.self ~op:(Some cmd.op)
            ~name:"slow_commit" ~dur:0 ~now:(now t);
          st.pending <- Instmap.remove inst st.pending;
          broadcast_commit t st ~inst ~op:cmd.op ~attrs:cmd.attrs
        end
      end
    end

(* --- Acceptor logic --- *)

let acceptor_on_preaccept t st ~inst ~(op : Op.t) ~attrs =
  match Instmap.find_opt inst st.cmds with
  | Some cmd ->
    (* Retransmitted PreAccept: answer with the attrs recorded the
       first time. Re-merging against a key table that has advanced
       since would give a different answer, and an instance that has
       moved past Preaccepted must never be downgraded. *)
    Fifo_net.send t.net ~src:st.self
      ~dst:t.replicas.(inst.lane)
      (PreAcceptOk { inst; attrs = cmd.attrs; acceptor = st.self })
  | None ->
    let merged = merge_attrs st ~key:op.Op.key ~exclude:inst attrs in
    st.cmds <-
      Instmap.add inst { op; attrs = merged; status = Preaccepted } st.cmds;
    note_instance st ~key:op.Op.key ~inst ~seq:merged.seq;
    persist t st Pre ~inst ~op ~attrs:merged (fun () ->
        Fifo_net.send t.net ~src:st.self
          ~dst:t.replicas.(inst.lane)
          (PreAcceptOk { inst; attrs = merged; acceptor = st.self }))

let acceptor_on_accept t st ~(inst : inst_id) ~(op : Op.t) ~attrs =
  let ack () =
    Fifo_net.send t.net ~src:st.self
      ~dst:t.replicas.(inst.lane)
      (MAcceptOk { inst; acceptor = st.self })
  in
  let already =
    match Instmap.find_opt inst st.cmds with
    | Some { status = Committed | Executed; _ } -> true
    | Some ({ status = Accepted; _ } as cmd) -> attrs_equal cmd.attrs attrs
    | _ -> false
  in
  if already then ack () (* retransmitted MAccept: re-ack, no re-sync *)
  else begin
    (match Instmap.find_opt inst st.cmds with
    | Some cmd ->
      (* A committed instance keeps its committed attrs; only earlier
         phases adopt the accept-round union. *)
      if cmd.status = Preaccepted || cmd.status = Accepted then begin
        cmd.attrs <- attrs;
        cmd.status <- Accepted
      end
    | None ->
      st.cmds <- Instmap.add inst { op; attrs; status = Accepted } st.cmds);
    note_instance st ~key:op.Op.key ~inst ~seq:attrs.seq;
    persist t st Macc ~inst ~op ~attrs ack
  end

let handle t lane ~src msg =
  let st = t.states.(lane) in
  match msg with
  | Request op -> leader_on_request t st op
  | PreAccept { inst; op; attrs } -> acceptor_on_preaccept t st ~inst ~op ~attrs
  | PreAcceptOk { inst; attrs; acceptor } ->
    leader_on_preaccept_ok t st ~inst ~acceptor ~attrs
  | MAccept { inst; op; attrs } -> acceptor_on_accept t st ~inst ~op ~attrs
  | MAcceptOk { inst; acceptor } -> leader_on_accept_ok t st ~inst ~acceptor
  | Commit { inst; op; attrs } -> begin
    match Instmap.find_opt inst st.cmds with
    | Some { status = Committed | Executed; _ } -> () (* re-delivered *)
    | _ ->
      persist t st Cmt ~inst ~op ~attrs (fun () ->
          record_commit t st ~inst ~op ~attrs)
  end
  | CommitReq { inst } -> begin
    match Instmap.find_opt inst st.cmds with
    | Some ({ status = Committed | Executed; _ } as cmd) ->
      Fifo_net.send t.net ~src:st.self ~dst:src
        (Commit { inst; op = cmd.op; attrs = cmd.attrs })
    | _ -> ()
  end
  | Reply _ -> ()

let handle_client t ~src:_ msg =
  match msg with
  | Reply { op } -> t.observer.Observer.on_commit op ~now:(now t)
  | _ -> ()

(* --- wipe-restart recovery --- *)

let wipe t lane =
  let st = t.states.(lane) in
  st.next_iid <- 0;
  st.cmds <- Instmap.empty;
  Hashtbl.reset st.key_last;
  st.pending <- Instmap.empty;
  st.waiters <- Instmap.empty

let replay_record t lane record =
  let st = t.states.(lane) in
  match record with
  | Instance { phase; inst; op; attrs } -> begin
    if inst.lane = lane then
      st.next_iid <- Stdlib.max st.next_iid (inst.iid + 1);
    match phase with
    | Own ->
      if not (Instmap.mem inst st.cmds) then begin
        st.cmds <- Instmap.add inst { op; attrs; status = Preaccepted } st.cmds;
        note_instance st ~key:op.Op.key ~inst ~seq:attrs.seq;
        st.pending <-
          Instmap.add inst
            {
              initial = attrs;
              replies = [];
              acks = Nodeid.Set.singleton st.self;
              in_accept = false;
              opened = now t;
            }
            st.pending
      end
    | Pre ->
      if not (Instmap.mem inst st.cmds) then begin
        st.cmds <- Instmap.add inst { op; attrs; status = Preaccepted } st.cmds;
        note_instance st ~key:op.Op.key ~inst ~seq:attrs.seq
      end
    | Macc -> begin
      (match Instmap.find_opt inst st.cmds with
      | Some ({ status = Preaccepted | Accepted; _ } as cmd) ->
        cmd.attrs <- attrs;
        cmd.status <- Accepted
      | Some _ -> ()
      | None ->
        st.cmds <- Instmap.add inst { op; attrs; status = Accepted } st.cmds);
      note_instance st ~key:op.Op.key ~inst ~seq:attrs.seq;
      if inst.lane = lane then
        match Instmap.find_opt inst st.pending with
        | Some p ->
          p.in_accept <- true;
          p.acks <- Nodeid.Set.singleton st.self
        | None -> ()
    end
    | Cmt ->
      if inst.lane = lane then st.pending <- Instmap.remove inst st.pending;
      record_commit t st ~inst ~op ~attrs
  end
  | _ -> ()

(* EPaxos never snapshots: its log is the whole recovery state. *)
let replay t lane records =
  t.replaying.(lane) <- true;
  List.iter (replay_record t lane) records;
  t.replaying.(lane) <- false

let classify : msg -> Msg_class.t = function
  | Request _ -> Msg_class.Proposal
  | PreAccept _ | MAccept _ -> Msg_class.Replication
  | PreAcceptOk _ | MAcceptOk _ -> Msg_class.Ack
  | Commit _ -> Msg_class.Commit_notice
  | Reply _ | CommitReq _ -> Msg_class.Control

let op_of = function
  | Request op
  | PreAccept { op; _ }
  | MAccept { op; _ }
  | Commit { op; _ }
  | Reply { op } -> Some op
  | PreAcceptOk _ | MAcceptOk _ | CommitReq _ -> None

let name = "epaxos"

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
      f = Quorum.f_of_n n;
      observer;
      coordinator_of;
      states = [||];
      fast = 0;
      slow = 0;
      stores;
      replaying = Array.make n false;
    }
  in
  t.states <-
    Array.init n (fun lane ->
        {
          self = replicas.(lane);
          lane;
          next_iid = 0;
          cmds = Instmap.empty;
          key_last = Hashtbl.create 1024;
          pending = Instmap.empty;
          waiters = Instmap.empty;
        });
  Array.iteri
    (fun lane r -> Fifo_net.set_handler net r (handle t lane))
    replicas;
  Durable.install net ~replicas ~stores ~wipe:(wipe t) ~replay:(replay t);
  for node = 0 to Fifo_net.size net - 1 do
    if not (Array.exists (Nodeid.equal node) replicas) then
      Fifo_net.set_handler net node (handle_client t)
  done;
  (* Robustness timers, per replica. Leader role: re-drive the quorum
     round for instances stuck without replies (PreAccept or its Ok
     lost to a crash). Executor role: instances blocked on a dependency
     this replica never saw committed pull the Commit from the
     dependency's owner. *)
  let engine = Fifo_net.engine net in
  Array.iteri
    (fun lane _ ->
      ignore
        (Engine.every engine ~interval:(Time_ns.ms 250) (fun () ->
             let st = t.states.(lane) in
             Instmap.iter
               (fun inst p ->
                 if Time_ns.diff (now t) p.opened > Time_ns.ms 400 then
                   match Instmap.find_opt inst st.cmds with
                   | None -> ()
                   | Some cmd ->
                     if p.in_accept then
                       Array.iter
                         (fun r ->
                           if not (Nodeid.Set.mem r p.acks) then
                             Fifo_net.send net ~src:st.self ~dst:r
                               (MAccept { inst; op = cmd.op; attrs = cmd.attrs }))
                         t.replicas
                     else
                       Array.iter
                         (fun r ->
                           if
                             (not (Nodeid.equal r st.self))
                             && not (List.mem_assoc r p.replies)
                           then
                             Fifo_net.send net ~src:st.self ~dst:r
                               (PreAccept { inst; op = cmd.op; attrs = p.initial }))
                         t.replicas)
               st.pending;
             Instmap.iter
               (fun dep _ ->
                 let missing =
                   match Instmap.find_opt dep st.cmds with
                   | None | Some { status = Preaccepted | Accepted; _ } -> true
                   | Some _ -> false
                 in
                 if missing then
                   Fifo_net.send net ~src:st.self ~dst:t.replicas.(dep.lane)
                     (CommitReq { inst = dep }))
               st.waiters)))
    replicas;
  t

let submit t (op : Op.t) =
  t.observer.Observer.on_submit op ~now:(now t);
  let dst = t.coordinator_of op.Op.client in
  Fifo_net.send t.net ~src:op.Op.client ~dst (Request op)

let committed_count t = t.fast + t.slow
let fast_slow_counts t = Some (t.fast, t.slow)
let extra_stats _ = []
let gauges _ = []

(* Leaderless: every replica already fronts its own clients, and a
   rolled replica's instances recover via the explicit-prepare path —
   there is no lease to hand off. *)
let control _ _ ~k:_ = false
