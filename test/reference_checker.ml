(* The chaos checker as it stood before its per-segment state moved onto
   typed op-id and int-keyed tables, kept as a test-only oracle:
   [Fault.Checker.check] must report the same verdict, counts and
   violations for every journal (test_fault's "checker = reference"
   property says which orders must match too). Polymorphic tables and
   [compare] throughout, so it is slow but plainly right. *)

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

(* One run's worth of history. Merged sweep journals separate runs with
   [Mark] headers and reuse op ids across runs, so the checker splits at
   every [Mark] and checks each segment independently. *)
type seg = {
  label : string;
  submit : (Journal.opid, Time_ns.t) Hashtbl.t;
  key_of : (Journal.opid, int) Hashtbl.t;
  commit : (Journal.opid, Time_ns.t) Hashtbl.t;
  exec_order : (int, Journal.opid list ref) Hashtbl.t;  (* replica, newest first *)
  exec_count : (int * Journal.opid, int) Hashtbl.t;
  mutable max_at : Time_ns.t;
  mutable interesting : bool;
  mutable recoveries : int;
  mutable bumps : (Time_ns.t * int) list;
      (** journaled [migrate.epoch] ownership changes, (at, slot),
          newest first *)
  mutable rbumps : Time_ns.t list;
      (** journaled [reconfig.epoch] membership changes, newest first *)
  removed : (int, Time_ns.t) Hashtbl.t;
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
    submit = Hashtbl.create 256;
    key_of = Hashtbl.create 256;
    commit = Hashtbl.create 256;
    exec_order = Hashtbl.create 8;
    exec_count = Hashtbl.create 256;
    max_at = Time_ns.zero;
    interesting = false;
    recoveries = 0;
    bumps = [];
    rbumps = [];
    removed = Hashtbl.create 4;
    stale_execs = [];
  }

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
    (* Keep the first submit: retries re-submit the same op id. *)
    if not (Hashtbl.mem seg.submit op) then begin
      Hashtbl.replace seg.submit op at;
      Hashtbl.replace seg.key_of op key
    end
  | Journal.Commit { op; at; _ } ->
    if not (Hashtbl.mem seg.commit op) then Hashtbl.replace seg.commit op at
  | Journal.Execute { op; replica; at; _ } ->
    seg.interesting <- true;
    (match Hashtbl.find_opt seg.removed replica with
    | Some rat when at > rat -> seg.stale_execs <- (replica, op, at) :: seg.stale_execs
    | _ -> ());
    let order =
      match Hashtbl.find_opt seg.exec_order replica with
      | Some l -> l
      | None ->
        let l = ref [] in
        Hashtbl.replace seg.exec_order replica l;
        l
    in
    order := op :: !order;
    Hashtbl.replace seg.exec_count (replica, op)
      (1 + Option.value ~default:0 (Hashtbl.find_opt seg.exec_count (replica, op)))
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
      let p = key ^ "=" in
      let pl = String.length p in
      if String.length tok > pl && String.sub tok 0 pl = p then
        int_of_string_opt (String.sub tok pl (String.length tok - pl))
      else None
    in
    (match String.split_on_char ' ' detail with
    | node_tok :: verb :: rest -> (
      match ifield "node" node_tok with
      | None -> ()
      | Some node -> (
        match verb with
        | "remove" -> Hashtbl.replace seg.removed node at
        | "add" -> Hashtbl.remove seg.removed node
        | "replace" -> (
          Hashtbl.replace seg.removed node at;
          match rest with
          | with_tok :: _ -> (
            match ifield "with" with_tok with
            | Some w -> Hashtbl.remove seg.removed w
            | None -> ())
          | [] -> ())
        | _ -> ()))
    | _ -> ())
  | _ -> ()

let rec is_prefix short long =
  match (short, long) with
  | [], _ -> true
  | _, [] -> false
  | a :: s, b :: l -> a = b && is_prefix s l

(* Ops committed in the journal's last instants may legitimately not
   have reached every (or any) replica yet; give them slack before
   calling a missing execution a violation. *)
let tail_slack = Time_ns.ms 500

let check_seg ~require_complete ~slot_of seg =
  let violations = ref [] in
  let violate fmt =
    Printf.ksprintf
      (fun s ->
        violations :=
          (if seg.label = "" then s else seg.label ^ ": " ^ s) :: !violations)
      fmt
  in
  (* 1. exactly-once execution per replica *)
  let dups = ref 0 in
  Hashtbl.iter
    (fun (replica, op) n ->
      if n > 1 then begin
        dups := !dups + (n - 1);
        violate "op %s executed %d times at replica %d" (opid_str op) n replica
      end)
    seg.exec_count;
  (* 1b. removed replicas execute nothing past their removal — the
     stale-config failure mode: a replica dropped from the membership
     kept its network endpoints and went on applying ops. *)
  List.iter
    (fun (replica, op, at) ->
      violate "removed replica %d executed op %s @%d after its removal"
        replica (opid_str op) at)
    (List.rev seg.stale_execs);
  (* Per-replica, per-key execution sequences (oldest first). *)
  let by_key : (int, (int * Journal.opid list) list ref) Hashtbl.t =
    Hashtbl.create 64
  in
  Hashtbl.iter
    (fun replica order ->
      let per_key = Hashtbl.create 64 in
      List.iter
        (fun op ->
          let key =
            match Hashtbl.find_opt seg.key_of op with Some k -> k | None -> -1
          in
          let l =
            match Hashtbl.find_opt per_key key with
            | Some l -> l
            | None ->
              let l = ref [] in
              Hashtbl.replace per_key key l;
              l
          in
          l := op :: !l)
        (List.rev !order);
      Hashtbl.iter
        (fun key l ->
          let entry =
            match Hashtbl.find_opt by_key key with
            | Some e -> e
            | None ->
              let e = ref [] in
              Hashtbl.replace by_key key e;
              e
          in
          entry := (replica, List.rev !l) :: !entry)
        per_key)
    seg.exec_order;
  let keys =
    List.sort compare (Hashtbl.fold (fun k _ acc -> k :: acc) by_key [])
  in
  List.iter
    (fun key ->
      let seqs = List.sort compare !(Hashtbl.find by_key key) in
      (* 2. log-prefix agreement: every replica's sequence for this key
         must be a prefix of the longest one. *)
      let longest =
        List.fold_left
          (fun best (_, s) ->
            if List.length s > List.length best then s else best)
          [] seqs
      in
      List.iter
        (fun (replica, s) ->
          if not (is_prefix s longest) then
            violate "key %d: replica %d execution order diverges (%s...)" key
              replica
              (String.concat " " (List.map opid_str (List.filteri (fun i _ -> i < 6) s))))
        seqs;
      (* 2b. migration epoch split: once this key's slot has changed
         owner (a journaled [migrate.epoch] bump), no pre-bump op may
         execute after a post-bump op in any replica's sequence —
         otherwise the old owner's log kept growing for the key past the
         handoff, the double-owner failure mode. An op's epoch is the
         number of bumps of its slot before its first submit. *)
      (match slot_of with
      | None -> ()
      | Some slot_of ->
        let slot = slot_of key in
        let bumps =
          List.filter_map
            (fun (at, s) -> if s = slot then Some at else None)
            seg.bumps
          |> List.sort compare
        in
        if bumps <> [] then
          let epoch_of op =
            match Hashtbl.find_opt seg.submit op with
            | None -> None
            | Some s ->
              Some (List.length (List.filter (fun b -> b <= s) bumps))
          in
          List.iter
            (fun (replica, sq) ->
              let hi = ref 0 in
              List.iter
                (fun op ->
                  match epoch_of op with
                  | None -> ()
                  | Some e ->
                    if e < !hi then
                      violate
                        "key %d (slot %d): replica %d executed \
                         pre-migration op %s after a post-migration op \
                         (epoch %d after %d)"
                        key slot replica (opid_str op) e !hi
                    else hi := e)
                sq)
            seqs);
      (* 2c. reconfig epoch split: ops submitted under the old
         membership (before a journaled [reconfig.epoch] bump) must not
         execute after ops submitted under the new one in any replica's
         per-key sequence — the stop-the-world drain guarantees the
         boundary is clean. Per-key, like 2b: leaderless protocols
         legitimately reorder across keys. *)
      (let rbumps = List.sort compare seg.rbumps in
       if rbumps <> [] then
         let epoch_of op =
           match Hashtbl.find_opt seg.submit op with
           | None -> None
           | Some s ->
             Some (List.length (List.filter (fun b -> b <= s) rbumps))
         in
         List.iter
           (fun (replica, sq) ->
             let hi = ref 0 in
             List.iter
               (fun op ->
                 match epoch_of op with
                 | None -> ()
                 | Some e ->
                   if e < !hi then
                     violate
                       "key %d: replica %d executed pre-reconfig op %s \
                        after a post-reconfig op (membership epoch %d \
                        after %d)"
                       key replica (opid_str op) e !hi
                   else hi := e)
               sq)
           seqs);
      (* 3. write-only linearizability (WGL-style real-time check): an
         op that committed before another was submitted must be ordered
         before it in the witness order. *)
      let max_submit = ref Time_ns.zero in
      List.iter
        (fun op ->
          (match Hashtbl.find_opt seg.commit op with
          | Some c when c < !max_submit ->
            violate
              "key %d: op %s committed @%d but ordered after an op submitted @%d"
              key (opid_str op) c !max_submit
          | _ -> ());
          match Hashtbl.find_opt seg.submit op with
          | Some s -> max_submit := Time_ns.max !max_submit s
          | None -> ())
        longest)
    keys;
  (* 4. committed ops must execute somewhere (modulo the drain tail).
     One pass over [exec_count] builds the executed set, so the rule is
     O(executions + commits), not a table scan per committed op. *)
  let executed_ops = Hashtbl.create (Hashtbl.length seg.exec_count) in
  Hashtbl.iter
    (fun (_, op) n -> if n > 0 then Hashtbl.replace executed_ops op ())
    seg.exec_count;
  Hashtbl.iter
    (fun op at ->
      if
        Time_ns.diff seg.max_at at > tail_slack
        && not (Hashtbl.mem executed_ops op)
      then violate "op %s committed @%d but never executed" (opid_str op) at)
    seg.commit;
  (* 5. completeness, for plans that must not lose ops *)
  if require_complete then
    Hashtbl.iter
      (fun op at ->
        if not (Hashtbl.mem seg.commit op) then
          violate "op %s submitted @%d but never committed" (opid_str op) at)
      seg.submit;
  let executed = Hashtbl.fold (fun _ n acc -> acc + n) seg.exec_count 0 in
  ( List.rev !violations,
    Hashtbl.length seg.submit,
    Hashtbl.length seg.commit,
    executed,
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
    ok = violations = [];
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
