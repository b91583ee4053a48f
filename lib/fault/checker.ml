open Domino_sim
open Domino_obs

type report = {
  ok : bool;
  violations : string list;
  segments : int;
  submitted : int;
  committed : int;
  executed : int;
  duplicate_execs : int;
  recoveries : int;
  migrations : int;
  reconfigs : int;
}

let opid_str (c, s) = Printf.sprintf "%d#%d" c s

let same_op (c1, s1) (c2, s2) = Int.equal c1 c2 && Int.equal s1 s2

module Itbl = Hashtbl.Make (Int)

(* What a segment has seen of one op. *)
type op_state = {
  op : Journal.opid;
  mutable submitted : bool;
  mutable submit_at : Time_ns.t;
      (** the first submit's: retries re-submit the same op id *)
  mutable key : int;  (** the first submit's; -1 before one *)
  mutable committed : bool;
  mutable commit_at : Time_ns.t;  (** the first commit's *)
  mutable executed : bool;  (** at some replica *)
}

type replica = {
  first : int Journal.Opid_tbl.t;
      (** op -> index, in the segment's executions, of its first
          execution here *)
  mutable order : op_state list;  (** executions here, newest first *)
}

(* An op executed more than once at one replica. *)
type repeat = { r_replica : int; r_op : Journal.opid; mutable times : int }

(* One run's worth of history. Merged sweep journals separate runs with
   [Mark] headers and reuse op ids across runs, so the checker splits at
   every [Mark] and checks each segment independently. *)
type seg = {
  label : string;
  ops : op_state Journal.Opid_tbl.t;
  mutable submits : op_state list;  (** first submits, newest first *)
  mutable commits : op_state list;  (** first commits, newest first *)
  replicas : replica Itbl.t;
  mutable execs : int;
  repeats : repeat Itbl.t;  (** by the index of the first execution *)
  mutable max_at : Time_ns.t;
  mutable interesting : bool;
  mutable recoveries : int;
  mutable bumps : (Time_ns.t * int) list;
      (** journaled [migrate.epoch] ownership changes, (at, slot),
          newest first *)
  mutable rbumps : Time_ns.t list;
      (** journaled [reconfig.epoch] membership changes, newest first *)
  removed : Time_ns.t Itbl.t;
      (** replica -> removal time, cleared by a later add/replace-in.
          Replica ids are group-local; reconfig plans drive one group
          per journal (the fabric's patch/chaos harnesses), so ids are
          unambiguous here. *)
  mutable stale_execs : (int * Journal.opid * Time_ns.t) list;
      (** executions at a removed replica after its removal, newest
          first — found streaming, reported as violations *)
}

let new_seg label =
  {
    label;
    ops = Journal.Opid_tbl.create 256;
    submits = [];
    commits = [];
    replicas = Itbl.create 8;
    execs = 0;
    repeats = Itbl.create 4;
    max_at = Time_ns.zero;
    interesting = false;
    recoveries = 0;
    bumps = [];
    rbumps = [];
    removed = Itbl.create 4;
    stale_execs = [];
  }

let op_state seg op =
  match Journal.Opid_tbl.find_opt seg.ops op with
  | Some st -> st
  | None ->
    let st =
      {
        op;
        submitted = false;
        submit_at = Time_ns.zero;
        key = -1;
        committed = false;
        commit_at = Time_ns.zero;
        executed = false;
      }
    in
    Journal.Opid_tbl.add seg.ops op st;
    st

let replica seg id =
  match Itbl.find_opt seg.replicas id with
  | Some r -> r
  | None ->
    let r = { first = Journal.Opid_tbl.create 256; order = [] } in
    Itbl.add seg.replicas id r;
    r

let feed seg ev =
  (match ev with
  | Journal.Submit { at; _ }
  | Journal.Commit { at; _ }
  | Journal.Execute { at; _ } ->
    seg.max_at <- Time_ns.max seg.max_at at
  | _ -> ());
  match ev with
  | Journal.Submit { op; key; at; _ } ->
    seg.interesting <- true;
    let st = op_state seg op in
    if not st.submitted then begin
      st.submitted <- true;
      st.submit_at <- at;
      st.key <- key;
      seg.submits <- st :: seg.submits
    end
  | Journal.Commit { op; at; _ } ->
    let st = op_state seg op in
    if not st.committed then begin
      st.committed <- true;
      st.commit_at <- at;
      seg.commits <- st :: seg.commits
    end
  | Journal.Execute { op; replica = id; at; _ } ->
    seg.interesting <- true;
    (match Itbl.find_opt seg.removed id with
    | Some rat when at > rat ->
      seg.stale_execs <- (id, op, at) :: seg.stale_execs
    | _ -> ());
    let st = op_state seg op in
    st.executed <- true;
    let r = replica seg id in
    r.order <- st :: r.order;
    (match Journal.Opid_tbl.find_opt r.first op with
    | None -> Journal.Opid_tbl.add r.first op seg.execs
    | Some first -> (
      match Itbl.find_opt seg.repeats first with
      | Some rep -> rep.times <- rep.times + 1
      | None ->
        Itbl.add seg.repeats first { r_replica = id; r_op = op; times = 2 }));
    seg.execs <- seg.execs + 1
  | Journal.Recovery { stage = "replay"; _ } ->
    (* Wipe-restarts in this segment: surfaced in the report so a run
       that was supposed to exercise recovery visibly did. *)
    seg.recoveries <- seg.recoveries + 1
  | Journal.Migrate { stage = "epoch"; slot; at; _ } ->
    seg.bumps <- (at, slot) :: seg.bumps
  | Journal.Reconfig { stage = "epoch"; detail; at; _ } ->
    (* A membership change took effect: [detail] is
       "node=N add|remove|replace with=M". Record the bump for the
       epoch-split rule and keep the removed-replica set current. *)
    seg.rbumps <- at :: seg.rbumps;
    let ifield key tok =
      let prefix = key ^ "=" in
      let pl = String.length prefix in
      if String.length tok > pl && String.starts_with ~prefix tok then
        int_of_string_opt (String.sub tok pl (String.length tok - pl))
      else None
    in
    (match String.split_on_char ' ' detail with
    | node_tok :: verb :: rest -> (
      match ifield "node" node_tok with
      | None -> ()
      | Some node -> (
        match verb with
        | "remove" -> Itbl.replace seg.removed node at
        | "add" -> Itbl.remove seg.removed node
        | "replace" -> (
          Itbl.replace seg.removed node at;
          match rest with
          | with_tok :: _ -> (
            match ifield "with" with_tok with
            | Some w -> Itbl.remove seg.removed w
            | None -> ())
          | [] -> ())
        | _ -> ()))
    | _ -> ())
  | _ -> ()

let rec is_prefix short long =
  match (short, long) with
  | [], _ -> true
  | _, [] -> false
  | a :: s, b :: l -> same_op a.op b.op && is_prefix s l

(* Ops committed in the journal's last instants may legitimately not
   have reached every (or any) replica yet; give them slack before
   calling a missing execution a violation. *)
let tail_slack = Time_ns.ms 500

(* One replica's executions of one key, oldest first. *)
type run = { rid : int; mutable seq : op_state list; mutable len : int }

(* The number of [bumps] (sorted) at or before the op's first submit;
   [None] for an op never submitted. *)
let epoch_of bumps st =
  if st.submitted then
    Some (List.length (List.filter (fun b -> b <= st.submit_at) bumps))
  else None

let check_seg ~require_complete ~slot_of seg =
  let violations = ref [] in
  let violate fmt =
    Printf.ksprintf
      (fun s ->
        violations :=
          (if String.equal seg.label "" then s else seg.label ^ ": " ^ s)
          :: !violations)
      fmt
  in
  let by_int f l = List.sort (fun a b -> Int.compare (f a) (f b)) l in
  (* 1. exactly-once execution per replica, in order of first execution *)
  let dups = ref 0 in
  Itbl.fold (fun first rep acc -> (first, rep) :: acc) seg.repeats []
  |> by_int fst
  |> List.iter (fun (_, { r_replica; r_op; times }) ->
         dups := !dups + (times - 1);
         violate "op %s executed %d times at replica %d" (opid_str r_op) times
           r_replica);
  (* 1b. removed replicas execute nothing past their removal — the
     stale-config failure mode: a replica dropped from the membership
     kept its network endpoints and went on applying ops. *)
  List.iter
    (fun (replica, op, at) ->
      violate "removed replica %d executed op %s @%d after its removal"
        replica (opid_str op) at)
    (List.rev seg.stale_execs);
  (* Per-key execution sequences, one run per replica that executed the
     key. Replicas are visited highest id first and runs prepended, so
     each key's runs come out by ascending replica id; each replica's
     executions are walked newest first and prepended, so each run
     comes out oldest first. *)
  let by_key : run list Itbl.t = Itbl.create 64 in
  Itbl.fold (fun id r acc -> (id, r) :: acc) seg.replicas []
  |> List.sort (fun (a, _) (b, _) -> Int.compare b a)
  |> List.iter (fun (id, r) ->
         List.iter
           (fun st ->
             let runs =
               Option.value ~default:[] (Itbl.find_opt by_key st.key)
             in
             match runs with
             | run :: _ when run.rid = id ->
               run.seq <- st :: run.seq;
               run.len <- run.len + 1
             | _ ->
               Itbl.replace by_key st.key
                 ({ rid = id; seq = [ st ]; len = 1 } :: runs))
           r.order);
  let keys = by_int Fun.id (Itbl.fold (fun k _ acc -> k :: acc) by_key []) in
  let rbumps = by_int Fun.id seg.rbumps in
  (* Rules 2b and 2c: report each op in a run whose epoch under the
     sorted [bumps] is below that of an op the run executed before it. *)
  let epoch_split bumps runs report =
    List.iter
      (fun run ->
        let hi = ref 0 in
        List.iter
          (fun st ->
            match epoch_of bumps st with
            | None -> ()
            | Some e -> if e < !hi then report run.rid st e !hi else hi := e)
          run.seq)
      runs
  in
  List.iter
    (fun key ->
      let runs = Itbl.find by_key key in
      (* 2. log-prefix agreement: every replica's sequence for this key
         must be a prefix of the longest one. *)
      let longest =
        List.fold_left
          (fun best run -> if run.len > best.len then run else best)
          { rid = -1; seq = []; len = 0 } runs
      in
      List.iter
        (fun run ->
          if not (is_prefix run.seq longest.seq) then
            violate "key %d: replica %d execution order diverges (%s...)" key
              run.rid
              (String.concat " "
                 (List.map
                    (fun st -> opid_str st.op)
                    (List.filteri (fun i _ -> i < 6) run.seq))))
        runs;
      (* 2b. migration epoch split: once this key's slot has changed
         owner (a journaled [migrate.epoch] bump), no pre-bump op may
         execute after a post-bump op in any replica's sequence —
         otherwise the old owner's log kept growing for the key past the
         handoff, the double-owner failure mode. An op's epoch is the
         number of bumps of its slot before its first submit. *)
      (match slot_of with
      | None -> ()
      | Some slot_of -> (
        let slot = slot_of key in
        match
          by_int Fun.id
            (List.filter_map
               (fun (at, s) -> if s = slot then Some at else None)
               seg.bumps)
        with
        | [] -> ()
        | bumps ->
          epoch_split bumps runs (fun replica st e hi ->
              violate
                "key %d (slot %d): replica %d executed pre-migration op %s \
                 after a post-migration op (epoch %d after %d)"
                key slot replica (opid_str st.op) e hi)));
      (* 2c. reconfig epoch split: ops submitted under the old
         membership (before a journaled [reconfig.epoch] bump) must not
         execute after ops submitted under the new one in any replica's
         per-key sequence — the stop-the-world drain guarantees the
         boundary is clean. Per-key, like 2b: leaderless protocols
         legitimately reorder across keys. *)
      (match rbumps with
      | [] -> ()
      | _ ->
        epoch_split rbumps runs (fun replica st e hi ->
            violate
              "key %d: replica %d executed pre-reconfig op %s after a \
               post-reconfig op (membership epoch %d after %d)"
              key replica (opid_str st.op) e hi));
      (* 3. write-only linearizability (WGL-style real-time check): an
         op that committed before another was submitted must be ordered
         before it in the witness order. *)
      let max_submit = ref Time_ns.zero in
      List.iter
        (fun st ->
          if st.committed && st.commit_at < !max_submit then
            violate
              "key %d: op %s committed @%d but ordered after an op submitted @%d"
              key (opid_str st.op) st.commit_at !max_submit;
          if st.submitted then
            max_submit := Time_ns.max !max_submit st.submit_at)
        longest.seq)
    keys;
  (* 4. committed ops must execute somewhere (modulo the drain tail),
     in commit order. *)
  List.iter
    (fun st ->
      if Time_ns.diff seg.max_at st.commit_at > tail_slack && not st.executed
      then
        violate "op %s committed @%d but never executed" (opid_str st.op)
          st.commit_at)
    (List.rev seg.commits);
  (* 5. completeness, for plans that must not lose ops, in submit order *)
  if require_complete then
    List.iter
      (fun st ->
        if not st.committed then
          violate "op %s submitted @%d but never committed" (opid_str st.op)
            st.submit_at)
      (List.rev seg.submits);
  ( List.rev !violations,
    List.length seg.submits,
    List.length seg.commits,
    seg.execs,
    !dups,
    seg.recoveries )

let check ?(require_complete = false) ?slot_resolver j =
  let segs = ref [] in
  let cur = ref (new_seg "") in
  let flush () =
    if !cur.interesting then segs := !cur :: !segs
  in
  (* Segment splitting shares Journal.segment_label with Obs.Timeline,
     so the checker and the timeline analyzer always cut a merged sweep
     journal at the same points. *)
  Journal.iter j (fun ev ->
      match Journal.segment_label ev with
      | Some label ->
        flush ();
        cur := new_seg label
      | None -> feed !cur ev);
  flush ();
  let segs = List.rev !segs in
  let overflow =
    if Journal.dropped j > 0 then
      [
        Printf.sprintf
          "journal ring overflowed (%d events lost): checks are unsound"
          (Journal.dropped j);
      ]
    else []
  in
  let violations, submitted, committed, executed, dups, recs, migs, rcfgs =
    List.fold_left
      (fun (vs, s, c, e, d, r, m, rc) seg ->
        let slot_of =
          match slot_resolver with
          | Some resolve -> resolve seg.label
          | None -> None
        in
        let v, s', c', e', d', r' = check_seg ~require_complete ~slot_of seg in
        (vs @ v, s + s', c + c', e + e', d + d', r + r',
         m + List.length seg.bumps, rc + List.length seg.rbumps))
      (overflow, 0, 0, 0, 0, 0, 0, 0) segs
  in
  {
    ok = (match violations with [] -> true | _ :: _ -> false);
    violations;
    segments = List.length segs;
    submitted;
    committed;
    executed;
    duplicate_execs = dups;
    recoveries = recs;
    migrations = migs;
    reconfigs = rcfgs;
  }

let pp_report fmt r =
  Format.fprintf fmt
    "checker: %s — %d segment%s, %d submitted, %d committed, %d executed"
    (if r.ok then "OK" else "VIOLATIONS")
    r.segments
    (if r.segments = 1 then "" else "s")
    r.submitted r.committed r.executed;
  if r.duplicate_execs > 0 then
    Format.fprintf fmt ", %d duplicate executions" r.duplicate_execs;
  if r.recoveries > 0 then
    Format.fprintf fmt ", %d recoveries" r.recoveries;
  if r.migrations > 0 then
    Format.fprintf fmt ", %d migrations" r.migrations;
  if r.reconfigs > 0 then
    Format.fprintf fmt ", %d reconfigs" r.reconfigs;
  List.iter (fun v -> Format.fprintf fmt "@.  violation: %s" v) r.violations
