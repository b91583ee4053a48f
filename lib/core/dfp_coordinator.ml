open Domino_sim
open Domino_smr
module Store = Domino_store.Store
module Iset = Set.Make (Int)

(* The coordinator's WAL records, in the co-located replica's store.
   Journal kinds in quotes. *)
type Store.record +=
  | Decided of { ts : Time_ns.t; value : Op.t option; slow : bool }
        (** "cdec": a decision, synced before anything externalizes it *)
  | Decided_wm of Time_ns.t
        (** "cwm": the decided watermark's no-op blanket, synced before
            it is announced *)
  | Committed_ids of { upto : int; chunks : int array list }
        (** snapshot only: the operations decided in the "cdec" records
            below log index [upto], one chunk per snapshot (newest
            first), each a flat array of (client, seq) pairs *)
  | Tallies of { fast : int; slow : int }
        (** snapshot only, after its decisions: the decision counts *)

type callbacks = {
  send_commit : Time_ns.t -> Op.t option -> unit;
  send_p2a : Time_ns.t -> Op.t option -> unit;
  send_slow_reply : Op.t -> unit;
  send_watermark : Time_ns.t -> unit;
  send_commit_to : int -> Time_ns.t -> Op.t option -> unit;
  send_watermark_to : int -> Time_ns.t -> complete:bool -> unit;
  rescue : Op.t -> unit;
}

type value = Op.t option

type post = {
  ts : Time_ns.t;
  mutable reports : (int * Message.dfp_report) list;
      (** arrival order (newest first), at most one per acceptor *)
  mutable subjects : Op.t Op.Idmap.t;  (** ops proposed at this position *)
  mutable decided : value option;
  mutable durable : bool;
      (** the decision's "cdec" WAL record reached disk; only then may
          it be re-sent to individual laggards or blanketed by the
          decided watermark *)
  mutable recovering : value option;  (** the round-1 value, if started *)
  mutable p2bs : Iset.t;
}

type t = {
  cfg : Config.t;
  cb : callbacks;
  store : Store.t option;
      (** shared with the co-located replica;
          [None] runs without durability (engine-less unit tests) *)
  mutable cwm_logged : Time_ns.t;
      (** largest decided watermark whose "cwm" record is on disk — the
          bulk no-op blanket an amnesiac restart must honour *)
  n : int;
  q : int;
  m : int;
  watermarks : Time_ns.t array;  (** per-acceptor no-op fill time T_i *)
  sorted_wm : Time_ns.t array;  (** scratch for [w_fast] *)
  applied_wm : Time_ns.t array;
      (** per-acceptor frontier up to which implied no-op reports have
          been folded into tracked posts (avoids rescanning the whole
          undecided set on every heartbeat) *)
  tracked : (Time_ns.t, post) Hashtbl.t;
  mutable undecided : Iset.t;  (** timestamps of tracked undecided posts *)
  mutable w_dec : Time_ns.t;
  mutable w_sent : Time_ns.t;
  mutable committed_ops : Dense_ids.t;
  mutable chunks : int array list;
      (** the last snapshot's committed ids, shared with it: a snapshot
          adds one chunk and copies nothing *)
  mutable chunks_upto : int;  (** the log index [chunks] covers *)
  rescued : unit Op.Idtbl.t;
  mutable fast : int;
  mutable slow : int;
  mutable conflicts : int;
  mutable ticks : int;
}

let create ?store cfg cb =
  let n = Config.n cfg in
  {
    cfg;
    cb;
    store;
    cwm_logged = -1;
    n;
    q = Config.supermajority cfg;
    m = Config.majority cfg;
    watermarks = Array.make n (-1);
    sorted_wm = Array.make n (-1);
    applied_wm = Array.make n (-1);
    tracked = Hashtbl.create 1024;
    undecided = Iset.empty;
    w_dec = -1;
    w_sent = -1;
    committed_ops = Dense_ids.create ();
    chunks = [];
    chunks_upto = 0;
    rescued = Op.Idtbl.create 64;
    fast = 0;
    slow = 0;
    conflicts = 0;
    ticks = 0;
  }

let decided_watermark t = t.w_dec

let fast_decisions t = t.fast

let slow_decisions t = t.slow

let noop_conflicts t = t.conflicts

let undecided_positions t = Iset.cardinal t.undecided

(* q-th largest acceptor watermark: positions strictly below it have
   no-op coverage from at least a supermajority of replicas. *)
let w_fast t =
  (* Insertion sort, descending, into the scratch array: [n] is a
     handful of replicas and this runs on every vote and heartbeat. *)
  let a = t.sorted_wm in
  for i = 0 to t.n - 1 do
    let v = t.watermarks.(i) in
    let j = ref (i - 1) in
    while !j >= 0 && a.(!j) < v do
      a.(!j + 1) <- a.(!j);
      decr j
    done;
    a.(!j + 1) <- v
  done;
  a.(t.q - 1) - 1

let recompute_w_dec t =
  let bound =
    match Iset.min_elt_opt t.undecided with
    | None -> w_fast t
    | Some ts -> Stdlib.min (w_fast t) (ts - 1)
  in
  if bound > t.w_dec then t.w_dec <- bound

let rescue_op t (op : Op.t) =
  let id = Op.id op in
  if
    (not (Dense_ids.mem t.committed_ops id))
    && not (Op.Idtbl.mem t.rescued id)
  then begin
    Op.Idtbl.replace t.rescued id ();
    t.conflicts <- t.conflicts + 1;
    t.cb.rescue op
  end

let value_id = function None -> None | Some op -> Some (Op.id op)

let persist t ~kind record k =
  match t.store with
  | None -> k ()
  | Some store -> Store.append_sync store ~kind record k

(* Run [k] only once a "cwm" record covering [w] is durable: the
   decided watermark no-op-blankets every untracked position below it,
   so announcing (or answering a straggler from) a watermark the disk
   has not seen would let an amnesiac restart re-decide one of those
   positions as an operation. *)
let with_durable_wm t w k =
  if w <= t.cwm_logged then k ()
  else
    persist t ~kind:"cwm" (Decided_wm w) (fun () ->
        if w > t.cwm_logged then t.cwm_logged <- w;
        k ())

let decide t post value ~slow_path =
  if post.decided = None then begin
    (* The decision binds in memory at once — later votes, tallies and
       re-drives must see it — but everything the outside world can act
       on (the commit broadcast, the slow reply, rescuing the losing
       subjects, the decided watermark passing this position) waits for
       the "cdec" record's fsync: an amnesiac coordinator must never
       re-decide a position differently after someone observed the
       first outcome. *)
    post.decided <- Some value;
    if slow_path then t.slow <- t.slow + 1 else t.fast <- t.fast + 1;
    (match value with
    | Some op -> Dense_ids.add t.committed_ops (Op.id op)
    | None -> ());
    persist t ~kind:"cdec"
      (Decided { ts = post.ts; value; slow = slow_path })
      (fun () ->
        post.durable <- true;
        t.undecided <- Iset.remove post.ts t.undecided;
        t.cb.send_commit post.ts value;
        (match value with
        | Some op when slow_path -> t.cb.send_slow_reply op
        | _ -> ());
        (* Subjects that were not chosen at this position are lost; hand
           them to DM. *)
        let chosen = value_id value in
        Op.Idmap.iter
          (fun id op -> if Some id <> chosen then rescue_op t op)
          post.subjects;
        recompute_w_dec t)
  end

let same_op (a : Op.t) (b : Op.t) = a.client = b.client && a.seq = b.seq

(* Count reports per candidate value: the most-voted operation with its
   count (ties go to the smallest op id), and the no-op count. Reports
   hold at most one entry per acceptor, so counting by rescanning the
   list is cheap. *)
let tally reports =
  let best = ref None and noops = ref 0 in
  List.iter
    (fun (_, report) ->
      match report with
      | Message.Voted_noop -> incr noops
      | Message.Voted_op op -> (
        let c =
          List.fold_left
            (fun c (_, r) ->
              match r with
              | Message.Voted_op o when same_op o op -> c + 1
              | _ -> c)
            0 reports
        in
        match !best with
        | Some (bc, (b : Op.t))
          when bc > c
               || (bc = c
                  && (b.client < op.client
                     || (b.client = op.client && b.seq <= op.seq))) ->
          ()
        | _ -> best := Some (c, op)))
    reports;
  (!best, !noops)

(* Fast Paxos value-picking rule over the first classic quorum of
   round-0 reports: a value voted by >= q - f members of that quorum
   may have been chosen and must be re-proposed; otherwise prefer the
   most-voted operation (helps the client), else no-op. *)
let recovery_value t post =
  let quorum = List.filteri (fun i _ -> i < t.m) (List.rev post.reports) in
  let best, noops = tally quorum in
  let threshold = t.q - Config.f t.cfg in
  match best with
  | Some (c, op) when c >= threshold -> Some op
  | _ when noops >= threshold -> None
  | _ -> begin
    match best with Some (_, op) -> Some op | None -> None
  end

let start_recovery t post =
  if post.decided = None && post.recovering = None then begin
    let value = recovery_value t post in
    post.recovering <- Some value;
    t.cb.send_p2a post.ts value
  end

let check_decision t post =
  if post.decided = None && post.recovering = None then begin
    let best, noops = tally post.reports in
    let reported = List.length post.reports in
    let undetermined = t.n - reported in
    let best_op_count = match best with Some (c, _) -> c | None -> 0 in
    if best_op_count >= t.q then begin
      match best with
      | Some (_, op) -> decide t post (Some op) ~slow_path:false
      | None -> assert false
    end
    else if noops >= t.q then decide t post None ~slow_path:false
    else if Stdlib.max best_op_count noops + undetermined < t.q then
      start_recovery t post
  end

let get_post t ts =
  match Hashtbl.find_opt t.tracked ts with
  | Some post -> post
  | None ->
    let post =
      {
        ts;
        reports = [];
        subjects = Op.Idmap.empty;
        decided = None;
        durable = false;
        recovering = None;
        p2bs = Iset.empty;
      }
    in
    Hashtbl.replace t.tracked ts post;
    t.undecided <- Iset.add ts t.undecided;
    post

let has_report post acceptor =
  List.exists (fun (a, _) -> a = acceptor) post.reports

let add_report t post acceptor report =
  if not (has_report post acceptor) then begin
    post.reports <- (acceptor, report) :: post.reports;
    check_decision t post
  end

(* Apply a watermark advance: every tracked undecided position below
   [T] with no report from this acceptor gains an implicit no-op
   report (sound thanks to FIFO ordering, see .mli). Only the band
   between the previously applied frontier and [T] needs scanning:
   older positions were handled when the frontier passed them, and
   posts created later back-fill implied reports in [fold_in_implied]. *)
let advance_watermark t ~acceptor ~watermark =
  if watermark > t.watermarks.(acceptor) then begin
    t.watermarks.(acceptor) <- watermark;
    let prev = t.applied_wm.(acceptor) in
    t.applied_wm.(acceptor) <- watermark;
    (* Band = positions with prev <= ts < watermark (the frontier value
       itself was not yet covered when it was the frontier). *)
    let _, at_prev, above_prev = Iset.split prev t.undecided in
    let band, _, _ = Iset.split watermark above_prev in
    let band = if at_prev then Iset.add prev band else band in
    Iset.iter
      (fun ts ->
        match Hashtbl.find_opt t.tracked ts with
        | Some post -> add_report t post acceptor Message.Voted_noop
        | None -> ())
      band;
    recompute_w_dec t
  end

(* A freshly tracked position may already be expired at some acceptors
   (their watermark passed its timestamp before any vote arrived):
   those acceptors implicitly voted no-op — FIFO guarantees their
   accept, had there been one, would have arrived first. *)
let fold_in_implied t post =
  Array.iteri
    (fun acceptor wm ->
      if wm > post.ts && not (has_report post acceptor) then
        add_report t post acceptor Message.Voted_noop)
    t.watermarks

let on_vote t ~ts ~subject ~report ~acceptor ~watermark =
  (if ts <= t.w_dec then begin
     (* Position already bulk-decided as no-op; a late op is lost. *)
     rescue_op t subject;
     (* A vote below the decided watermark is a retransmission from an
        acceptor that never saw the outcome (it was crashed or
        partitioned when it went out). Until it learns one, it keeps
        the accept pending and its honest watermark — and therefore
        [w_fast] — frozen, so answer it directly — once the no-op
        blanket over this position is on disk. *)
     with_durable_wm t t.w_dec (fun () ->
         t.cb.send_commit_to acceptor ts None)
   end
   else begin
     let fresh = not (Hashtbl.mem t.tracked ts) in
     let post = get_post t ts in
     if fresh then fold_in_implied t post;
     if not (Op.Idmap.mem (Op.id subject) post.subjects) then
       post.subjects <- Op.Idmap.add (Op.id subject) subject post.subjects;
     (match post.decided with
     | Some chosen ->
       if value_id chosen <> Some (Op.id subject) then
         (* Position decided without this op. *)
         rescue_op t subject;
       (* Late vote for a settled position: re-send the decision so the
          stuck acceptor can drop its pending accept (see above). If
          the decision is still waiting on its fsync, the commit
          broadcast queued behind that barrier reaches the acceptor
          anyway. *)
       if post.durable then t.cb.send_commit_to acceptor ts chosen
     | None -> ());
     add_report t post acceptor report
   end);
  advance_watermark t ~acceptor ~watermark

let on_heartbeat t ~acceptor ~watermark =
  advance_watermark t ~acceptor ~watermark

(* Most decisions a pull re-sends in one batch. A longer outage is
   repaired over several pull rounds: each partial reply advances the
   replica's coverage frontier, so successive pulls ask from higher
   ground. *)
let pull_batch = 512

let on_pull t ~acceptor ~from =
  (* The replica's decision stream gapped (it was crashed, or a lossy
     link ate broadcasts): re-send, in timestamp order, every decided
     operation above its sound coverage frontier, then a resync
     watermark bounding exactly what this batch covered. Positions
     without a tracked decided-op post are no-ops by construction —
     [w_dec] never passes an undecided position — so the watermark is a
     faithful blanket for them. *)
  let missed =
    Hashtbl.fold
      (fun ts post acc ->
        if ts > from then
          match post.decided with
          | Some (Some _ as value) when post.durable -> (ts, value) :: acc
          | _ -> acc
        else acc)
      t.tracked []
  in
  let missed = List.sort (fun (a, _) (b, _) -> Int.compare a b) missed in
  let rec go n = function
    | [] ->
      let w = t.w_dec in
      with_durable_wm t w (fun () ->
          t.cb.send_watermark_to acceptor w ~complete:true)
    | (ts, value) :: rest when n < pull_batch ->
      t.cb.send_commit_to acceptor ts value;
      go (n + 1) rest
    | (ts, _) :: _ ->
      (* Batch capped before full coverage: the watermark may only
         blanket up to the last re-sent decision. *)
      let w = Stdlib.min t.w_dec (ts - 1) in
      with_durable_wm t w (fun () ->
          t.cb.send_watermark_to acceptor w ~complete:false)
  in
  go 0 missed

(* How long a tracked position may sit undecided before the coordinator
   stops waiting for the missing fast-round votes and falls back to
   coordinated recovery. Without this, a crashed acceptor deadlocks the
   pipeline: its vote never arrives, and every replica's honest
   watermark freezes at its own oldest undecided accept, so the
   implicit-no-op report that would complete the tally never forms. *)
let recovery_after = Time_ns.ms 500

let check_stuck t ~now =
  Iset.iter
    (fun ts ->
      if ts + recovery_after < now then
        match Hashtbl.find_opt t.tracked ts with
        | None -> ()
        | Some post ->
          if post.decided = None then begin
            match post.recovering with
            | Some value ->
              (* Round 1 already started but its P2a (or enough P2bs)
                 was lost to a fault; re-drive it. Receivers are
                 idempotent and [on_p2b] is set-based. *)
              t.cb.send_p2a ts value
            | None ->
              (* The Fast Paxos value-picking rule is only sound over a
                 full classic quorum of round-0 reports; below that,
                 keep waiting — a live majority retransmits its votes,
                 so the quorum eventually forms under minority faults. *)
              if List.length post.reports >= t.m then start_recovery t post
          end)
    t.undecided

let on_p2b t ~ts ~acceptor =
  match Hashtbl.find_opt t.tracked ts with
  | None -> ()
  | Some post -> begin
    post.p2bs <- Iset.add acceptor post.p2bs;
    match post.recovering with
    | Some value when post.decided = None && Iset.cardinal post.p2bs >= t.m ->
      decide t post value ~slow_path:true
    | _ -> ()
  end

let prune_interval = Time_ns.sec 2

let prune t =
  (* Decided positions well below the decided watermark can no longer
     receive meaningful traffic (late votes are rescued straight away),
     so drop them to bound memory over long runs. *)
  let cutoff = t.w_dec - prune_interval in
  if Hashtbl.length t.tracked > 4096 then
    Hashtbl.filter_map_inplace
      (fun ts post ->
        if post.decided <> None && ts < cutoff then None else Some post)
      t.tracked

let tick t =
  recompute_w_dec t;
  if t.w_dec > t.w_sent then begin
    t.w_sent <- t.w_dec;
    let w = t.w_dec in
    with_durable_wm t w (fun () -> t.cb.send_watermark w)
  end;
  t.ticks <- t.ticks + 1;
  if t.ticks land 0xFF = 0 then prune t

(* ------------------------------------------------------------------ *)
(* Crash with amnesia                                                  *)
(* ------------------------------------------------------------------ *)

let wipe_volatile t =
  Array.fill t.watermarks 0 t.n (-1);
  Array.fill t.applied_wm 0 t.n (-1);
  Hashtbl.reset t.tracked;
  t.undecided <- Iset.empty;
  t.w_dec <- -1;
  t.w_sent <- -1;
  t.cwm_logged <- -1;
  Dense_ids.clear t.committed_ops;
  t.chunks <- [];
  t.chunks_upto <- 0;
  (* [rescued] is volatile: a re-rescue after restart proposes the op at
     a fresh DM position, and the execution engines' seen-sets collapse
     the duplicate. [conflicts] stays — it is a cumulative statistic. *)
  Op.Idtbl.reset t.rescued;
  t.fast <- 0;
  t.slow <- 0;
  t.ticks <- 0

let replay_record t record =
  match record with
  | Decided { ts; value; slow } ->
    let post = get_post t ts in
    if post.decided = None then begin
      post.decided <- Some value;
      post.durable <- true;
      t.undecided <- Iset.remove ts t.undecided;
      if slow then t.slow <- t.slow + 1 else t.fast <- t.fast + 1;
      match value with
      | Some op -> Dense_ids.add t.committed_ops (Op.id op)
      | None -> ()
    end
  | Decided_wm w ->
    (* The durable blanket is re-honoured verbatim; [w_sent] stays -1
       so the next tick re-announces it — with a jumped decision
       sequence number, which is what drives every replica to pull. *)
    if w > t.w_dec then t.w_dec <- w;
    if w > t.cwm_logged then t.cwm_logged <- w
  | Committed_ids { upto; chunks } ->
    List.iter
      (fun chunk ->
        for i = 0 to (Array.length chunk / 2) - 1 do
          Dense_ids.add t.committed_ops (chunk.(2 * i), chunk.((2 * i) + 1))
        done)
      chunks;
    t.chunks <- chunks;
    t.chunks_upto <- upto
  | Tallies { fast; slow } ->
    t.fast <- fast;
    t.slow <- slow
  | _ -> () (* the co-located replica's records; not ours *)

(* What replaying the store's records below [upto], its disk frontier,
   rebuilds: the decided posts whose "cdec" record synced, down to the
   horizon [prune] keeps below the durable watermark (a pull from
   further back is answered with the watermark's no-op blanket, as it
   is by a coordinator that never restarted), the durable watermark,
   the decision counts less the unsynced decisions above [upto], which
   took effect before their fsync, and the committed-op set: the last
   snapshot's chunks, plus one of the ops decided in the records
   between its frontier and [upto]. *)
let snapshot t ~upto =
  match t.store with
  | None -> []
  | Some store ->
    let decided =
      Store.fold store ~from:t.chunks_upto ~upto
        (fun acc record ->
          match record with
          | Decided { value = Some op; _ } -> op.Op.seq :: op.client :: acc
          | _ -> acc)
        []
    in
    if decided <> [] then
      t.chunks <- Array.of_list (List.rev decided) :: t.chunks;
    t.chunks_upto <- upto;
    let fast, slow =
      Store.fold store ~from:upto ~upto:(Store.appended store)
        (fun ((fast, slow) as acc) record ->
          match record with
          | Decided { slow = s; _ } ->
            if s then (fast, slow - 1) else (fast - 1, slow)
          | _ -> acc)
        (t.fast, t.slow)
    in
    let tail =
      [ Committed_ids { upto; chunks = t.chunks }; Tallies { fast; slow } ]
    in
    let horizon = t.cwm_logged - prune_interval in
    let tail =
      if t.cwm_logged >= 0 then Decided_wm t.cwm_logged :: tail else tail
    in
    Hashtbl.fold
      (fun ts post acc ->
        match post.decided with
        | Some value when post.durable && ts >= horizon ->
          Decided { ts; value; slow = false } :: acc
        | _ -> acc)
      t.tracked tail

let recovery_state t =
  let posts =
    Hashtbl.fold
      (fun ts post acc ->
        match post.decided with
        | Some value when ts > t.w_dec -> (ts, value, post.durable) :: acc
        | _ -> acc)
      t.tracked []
  in
  [
    ( "posts",
      List.concat_map
        (fun (ts, value, durable) ->
          match value with
          | Some (op : Op.t) -> [ ts; op.client; op.seq; Bool.to_int durable ]
          | None -> [ ts; -1; -1; Bool.to_int durable ])
        (List.sort compare posts) );
    ("w_dec", [ t.w_dec ]);
    ("cwm_logged", [ t.cwm_logged ]);
    ( "committed_ops",
      List.concat_map (fun (c, s) -> [ c; s ]) (Dense_ids.elements t.committed_ops)
    );
    ("fast_slow", [ t.fast; t.slow ]);
  ]
