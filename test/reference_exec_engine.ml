(* The execution engine's original Map/Set/[Interval_set] implementation,
   kept as a test-only oracle: [Exec_engine] must produce exactly the
   same executions, frontier, coverage, pending decisions and counters
   for every interleaving of
   decisions and watermark raises. *)

open Domino_sim
open Domino_log

module Pset = Set.Make (Position)

module Tsmap = Map.Make (Int)

type 'op decision = Noop | Op of 'op

type 'op lane_state = {
  mutable pending : 'op decision Tsmap.t;  (** decided, not yet executed *)
  mutable watermark : Time_ns.t;
  mutable executed_set : Interval_set.t;
      (** executed explicit positions above the watermark: contiguous
          runs extend the lane's effective coverage, so dense-slot
          protocols (and adjacent explicit no-ops) make progress without
          waiting for the next watermark *)
}

type 'op t = {
  lanes : 'op lane_state array;
  on_exec : Position.t -> 'op -> unit;
  mutable cursor : Position.t option;  (** last executed explicit position *)
  mutable executed : int;
  mutable late : int;
  mutable seen : Pset.t;
      (** executed explicit positions, for duplicate detection; pruned
          against [cursor] lazily *)
  mutable seen_size : int;
      (** [Set.cardinal t.seen], maintained incrementally: the prune
          threshold check runs on every watermark raise and a Set's
          cardinal is an O(n) walk *)
}

let create ~n_lanes ~on_exec =
  if n_lanes <= 0 then invalid_arg "Exec_engine.create: n_lanes";
  {
    lanes =
      Array.init n_lanes (fun _ ->
          {
            pending = Tsmap.empty;
            watermark = -1;
            executed_set = Interval_set.empty;
          });
    on_exec;
    cursor = None;
    executed = 0;
    late = 0;
    seen = Pset.empty;
    seen_size = 0;
  }

let watermark t ~lane = t.lanes.(lane).watermark

(* Effective coverage: the watermark, extended by any contiguous run of
   executed explicit positions starting right above it. *)
let effective_watermark (state : _ lane_state) =
  match Interval_set.covered_from state.executed_set (state.watermark + 1) with
  | Some hi -> hi
  | None -> state.watermark

(* Smallest pending explicit decision across lanes, in position order. *)
let candidate t =
  let best = ref None in
  Array.iteri
    (fun lane state ->
      match Tsmap.min_binding_opt state.pending with
      | None -> ()
      | Some (ts, decision) ->
        let pos = { Position.ts; lane } in
        let better =
          match !best with
          | None -> true
          | Some (bpos, _) -> Position.compare pos bpos < 0
        in
        if better then best := Some (pos, decision))
    t.lanes;
  !best

(* Every position strictly before [pos] must be decided. Undecided
   positions are exactly those above each lane's watermark with no
   pending/executed decision; since [pos] is the global minimum pending
   decision, it suffices that each lane's watermark covers its share of
   the prefix: up to [ts] for lanes ordered before [pos.lane] at equal
   timestamp, up to [ts - 1] for the others. *)
let executable t (pos : Position.t) =
  let ok = ref true in
  Array.iteri
    (fun lane state ->
      let required = if lane < pos.lane then pos.ts else pos.ts - 1 in
      if effective_watermark state < required then ok := false)
    t.lanes;
  !ok

let rec pump t =
  match candidate t with
  | None -> ()
  | Some (pos, decision) ->
    if executable t pos then begin
      let state = t.lanes.(pos.lane) in
      state.pending <- Tsmap.remove pos.ts state.pending;
      state.executed_set <- Interval_set.add pos.ts state.executed_set;
      t.cursor <- Some pos;
      (* [add] returns the set itself when the element is present, so
         the physical-equality check keeps [seen_size] exact. *)
      let seen' = Pset.add pos t.seen in
      if seen' != t.seen then begin
        t.seen <- seen';
        t.seen_size <- t.seen_size + 1
      end;
      (match decision with
      | Noop -> ()
      | Op op ->
        t.executed <- t.executed + 1;
        t.on_exec pos op);
      pump t
    end

let passed t (pos : Position.t) =
  (* [pos] already executed or covered as noop. *)
  if Pset.mem pos t.seen then true
  else begin
    let lane_covered = effective_watermark t.lanes.(pos.lane) >= pos.ts in
    let behind_cursor =
      match t.cursor with
      | None -> false
      | Some c -> Position.compare pos c <= 0
    in
    lane_covered || behind_cursor
  end

let decide t (pos : Position.t) decision =
  if pos.lane < 0 || pos.lane >= Array.length t.lanes then
    invalid_arg "Exec_engine.decide: bad lane";
  let state = t.lanes.(pos.lane) in
  if Tsmap.mem pos.ts state.pending then () (* duplicate, not yet run *)
  else if passed t pos then begin
    (* Either a duplicate of an executed decision (benign) or a decision
       for a position the engine already treated as a no-op (protocol
       bug). Only the latter counts as late. *)
    if not (Pset.mem pos t.seen) then begin
      match decision with
      | Noop -> () (* noop where a noop was assumed: consistent *)
      | Op _ -> t.late <- t.late + 1
    end
  end
  else begin
    state.pending <- Tsmap.add pos.ts decision state.pending;
    pump t
  end

let decide_op t pos op = decide t pos (Op op)

let decide_noop t pos = decide t pos Noop

let prune_seen t =
  (* Positions at or below every lane's watermark can never be decided
     again through [passed]'s lane_covered check, so drop them. *)
  let min_wm =
    Array.fold_left (fun acc s -> Stdlib.min acc s.watermark) max_int t.lanes
  in
  if t.seen_size > 4096 then begin
    t.seen <- Pset.filter (fun p -> p.Position.ts > min_wm) t.seen;
    t.seen_size <- Pset.cardinal t.seen
  end

let set_watermark t ~lane ts =
  let state = t.lanes.(lane) in
  if ts > state.watermark then begin
    (* A watermark must never cover a pending (undecided-to-us) explicit
       decision's gap incorrectly; pending decided entries remain
       executable because [candidate]/[executable] consult pending
       before coverage. *)
    state.watermark <- ts;
    (* Executed positions at or below the watermark no longer extend
       coverage; drop them to bound memory. *)
    if Interval_set.range_count state.executed_set > 64 then
      state.executed_set <-
        Interval_set.fold_ranges
          (fun ~lo ~hi acc ->
            if hi <= ts then acc
            else Interval_set.add_range ~lo:(Stdlib.max lo (ts + 1)) ~hi acc)
          state.executed_set Interval_set.empty;
    prune_seen t;
    pump t
  end

let frontier t = t.cursor

let covered t ~lane = effective_watermark t.lanes.(lane)

let is_pending t (pos : Position.t) =
  Tsmap.mem pos.ts t.lanes.(pos.lane).pending

let executed_ops t = t.executed

let pending_ops t =
  Array.fold_left (fun acc s -> acc + Tsmap.cardinal s.pending) 0 t.lanes

let late_decisions t = t.late
