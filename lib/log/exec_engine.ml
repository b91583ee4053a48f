open Domino_sim

type 'op decision = Noop | Op of 'op

(* Int keys in increasing order, in one growable window of an array:
   O(1) at both ends, binary search in between. Per lane it holds the
   executed timestamps; {!Kq} adds a value per key for the pending
   decisions. *)
module Keys = struct
  type t = { mutable keys : int array; mutable head : int; mutable len : int }

  let create () = { keys = [||]; head = 0; len = 0 }

  let of_array keys = { keys = Array.copy keys; head = 0; len = Array.length keys }

  let to_array q = Array.sub q.keys q.head q.len

  let min_key q = q.keys.(q.head)

  let last_key q = q.keys.(q.head + q.len - 1)

  (* Room for one more key at the back: slide the window to the front
     when it fills at most half the array, else double it. Returns the
     window's old head when it moved (a parallel array must follow),
     else -1. *)
  let reserve q =
    let cap = Array.length q.keys in
    if q.head + q.len < cap then -1
    else begin
      let old = q.head in
      if q.len > 0 && 2 * q.len <= cap then
        Array.blit q.keys old q.keys 0 q.len
      else begin
        let keys = Array.make (Stdlib.max 8 (2 * cap)) 0 in
        Array.blit q.keys old keys 0 q.len;
        q.keys <- keys
      end;
      q.head <- 0;
      old
    end

  let push_back q k =
    ignore (reserve q : int);
    q.keys.(q.head + q.len) <- k;
    q.len <- q.len + 1

  let pop_front q =
    q.len <- q.len - 1;
    q.head <- (if q.len = 0 then 0 else q.head + 1)

  (* Number of keys below [k]. Keys mostly arrive in order, so the
     back is checked first. *)
  let rank q k =
    if q.len = 0 || last_key q < k then q.len
    else begin
      let lo = ref 0 and hi = ref q.len in
      while !lo < !hi do
        let mid = (!lo + !hi) lsr 1 in
        if q.keys.(q.head + mid) < k then lo := mid + 1 else hi := mid
      done;
      !lo
    end

  let mem_at q r k = r < q.len && q.keys.(q.head + r) = k

  let mem q k = mem_at q (rank q k) k

  (* Drop every key <= [k]; returns how many went. *)
  let drop_le q k =
    let n = ref 0 in
    while q.len > 0 && min_key q <= k do
      pop_front q;
      incr n
    done;
    !n
end

(* Keys with a value each, in a parallel array that follows the key
   window. *)
module Kq = struct
  type 'a t = {
    k : Keys.t;
    mutable vals : 'a array;
    fill : 'a;  (** overwrites dropped values, so they can be collected *)
  }

  let create fill = { k = Keys.create (); vals = [||]; fill }

  let of_list fill kvs =
    {
      k = Keys.of_array (Array.of_list (List.map fst kvs));
      vals = Array.of_list (List.map snd kvs);
      fill;
    }

  let to_list q =
    List.init q.k.len (fun i -> (q.k.keys.(q.k.head + i), q.vals.(q.k.head + i)))

  let is_empty q = q.k.len = 0

  let min_val q = q.vals.(q.k.head)

  let reserve q =
    let old = Keys.reserve q.k in
    if old >= 0 then begin
      let len = q.k.len and cap = Array.length q.k.keys in
      if cap = Array.length q.vals then begin
        Array.blit q.vals old q.vals 0 len;
        Array.fill q.vals len (cap - len) q.fill
      end
      else begin
        let vals = Array.make cap q.fill in
        Array.blit q.vals old vals 0 len;
        q.vals <- vals
      end
    end

  let pop_front q =
    q.vals.(q.k.head) <- q.fill;
    Keys.pop_front q.k

  let insert_at q r k v =
    reserve q;
    let i = q.k.head + r and n = q.k.len - r in
    Array.blit q.k.keys i q.k.keys (i + 1) n;
    Array.blit q.vals i q.vals (i + 1) n;
    q.k.keys.(i) <- k;
    q.vals.(i) <- v;
    q.k.len <- q.k.len + 1
end

(* A lane's coverage is one integer, [covered]: the watermark extended
   by the contiguous run of executed positions right above it (dense
   slots and adjacent explicit no-ops make progress without waiting for
   the next watermark). No executed position ever lies above
   [covered + 1]: (ts, lane) executes only once every lane, its own
   included, covers ts - 1. So executing ts either extends [covered]
   by one or falls at or below it, and a watermark raise never has a
   detached run to absorb. *)
type 'op lane = {
  pending : 'op decision Kq.t;  (** decided, not yet executed, by ts *)
  mutable watermark : Time_ns.t;
  mutable covered : Time_ns.t;  (** effective watermark *)
  seen : Keys.t;
      (** executed timestamps, for duplicate-versus-late classification;
          pruned against the lowest watermark *)
}

type 'op t = {
  lanes : 'op lane array;
  on_exec : Position.t -> 'op -> unit;
  mutable cursor_ts : Time_ns.t;  (** last executed explicit position *)
  mutable cursor_lane : int;  (** -1 until something executes *)
  mutable executed : int;
  mutable late : int;
  mutable seen_size : int;  (** executed timestamps held, over all lanes *)
}

let create ~n_lanes ~on_exec =
  if n_lanes <= 0 then invalid_arg "Exec_engine.create: n_lanes";
  {
    lanes =
      Array.init n_lanes (fun _ ->
          {
            pending = Kq.create Noop;
            watermark = -1;
            covered = -1;
            seen = Keys.create ();
          });
    on_exec;
    cursor_ts = min_int;
    cursor_lane = -1;
    executed = 0;
    late = 0;
    seen_size = 0;
  }

let watermark t ~lane = t.lanes.(lane).watermark

let covered t ~lane = t.lanes.(lane).covered

let is_pending t (pos : Position.t) =
  Keys.mem t.lanes.(pos.lane).pending.Kq.k pos.ts

(* Lane of the smallest pending decision in position order, or -1.
   At equal timestamps the lower lane wins. *)
let candidate t =
  let best = ref (-1) and best_ts = ref 0 in
  for lane = 0 to Array.length t.lanes - 1 do
    let pending = t.lanes.(lane).pending in
    if
      (not (Kq.is_empty pending))
      && (!best < 0 || Keys.min_key pending.k < !best_ts)
    then begin
      best := lane;
      best_ts := Keys.min_key pending.k
    end
  done;
  !best

(* Every position strictly before (ts, lane) must be decided. Since it
   is the global minimum pending decision, it suffices that each lane's
   coverage reaches its share of the prefix: up to [ts] for lanes
   ordered before [lane] at equal timestamp, up to [ts - 1] for the
   others. *)
let executable t ~lane ~ts =
  let ok = ref true and l = ref 0 in
  while !ok && !l < Array.length t.lanes do
    let required = if !l < lane then ts else ts - 1 in
    if t.lanes.(!l).covered < required then ok := false;
    incr l
  done;
  !ok

let rec pump t =
  let lane = candidate t in
  if lane >= 0 then begin
    let st = t.lanes.(lane) in
    let ts = Keys.min_key st.pending.k in
    if executable t ~lane ~ts then begin
      let decision = Kq.min_val st.pending in
      Kq.pop_front st.pending;
      if ts > st.covered then st.covered <- ts;
      t.cursor_ts <- ts;
      t.cursor_lane <- lane;
      Keys.push_back st.seen ts;
      t.seen_size <- t.seen_size + 1;
      (match decision with
      | Noop -> ()
      | Op op ->
        t.executed <- t.executed + 1;
        t.on_exec { Position.ts; lane } op);
      pump t
    end
  end

let decide t (pos : Position.t) decision =
  if pos.lane < 0 || pos.lane >= Array.length t.lanes then
    invalid_arg "Exec_engine.decide: bad lane";
  let st = t.lanes.(pos.lane) in
  let r = Keys.rank st.pending.k pos.ts in
  if Keys.mem_at st.pending.k r pos.ts then () (* duplicate, not yet run *)
  else if st.covered >= pos.ts then begin
    (* Already passed (every position at or behind the last execution is
       covered too). Either a duplicate of an executed decision (benign)
       or a decision for a position the engine already treated as a
       no-op (protocol bug). Only the latter counts as late. *)
    if not (Keys.mem st.seen pos.ts) then begin
      match decision with
      | Noop -> () (* noop where a noop was assumed: consistent *)
      | Op _ -> t.late <- t.late + 1
    end
  end
  else begin
    Kq.insert_at st.pending r pos.ts decision;
    pump t
  end

let decide_op t pos op = decide t pos (Op op)

let decide_noop t pos = decide t pos Noop

(* The executed timestamps only tell duplicates from late decisions.
   Once more than 4096 are held, those at or below every lane's
   watermark are dropped; a duplicate of a dropped position then counts
   as late. *)
let prune_seen t =
  if t.seen_size > 4096 then begin
    let min_wm = ref max_int in
    for lane = 0 to Array.length t.lanes - 1 do
      min_wm := Stdlib.min !min_wm t.lanes.(lane).watermark
    done;
    for lane = 0 to Array.length t.lanes - 1 do
      t.seen_size <- t.seen_size - Keys.drop_le t.lanes.(lane).seen !min_wm
    done
  end

let set_watermark t ~lane ts =
  let st = t.lanes.(lane) in
  if ts > st.watermark then begin
    (* Pending decisions at or below the new watermark stay executable:
       [candidate] consults pending before coverage. *)
    st.watermark <- ts;
    if ts > st.covered then st.covered <- ts;
    prune_seen t;
    pump t
  end

let frontier t =
  if t.cursor_lane < 0 then None
  else Some { Position.ts = t.cursor_ts; lane = t.cursor_lane }

let executed_ops t = t.executed

let executed_held t = t.seen_size

let pending_ops t =
  Array.fold_left (fun acc st -> acc + st.pending.Kq.k.len) 0 t.lanes

let late_decisions t = t.late

type 'op lane_image = {
  watermark : Time_ns.t;
  covered : Time_ns.t;
  pending : (Time_ns.t * 'op option) list;
  seen : Time_ns.t array;
}

type 'op image = {
  lanes : 'op lane_image array;
  cursor : Position.t option;
  executed : int;
  late : int;
}

let image (t : _ t) =
  {
    lanes =
      Array.map
        (fun (st : _ lane) ->
          {
            watermark = st.watermark;
            covered = st.covered;
            pending =
              List.map
                (fun (ts, d) -> (ts, match d with Noop -> None | Op op -> Some op))
                (Kq.to_list st.pending);
            seen = Keys.to_array st.seen;
          })
        t.lanes;
    cursor = frontier t;
    executed = t.executed;
    late = t.late;
  }

let restore (t : _ t) (img : _ image) =
  if Array.length img.lanes <> Array.length t.lanes then
    invalid_arg "Exec_engine.restore: lane count";
  let lanes =
    Array.map
      (fun (l : _ lane_image) : _ lane ->
        {
          pending =
            Kq.of_list Noop
              (List.map
                 (fun (ts, d) -> (ts, match d with None -> Noop | Some op -> Op op))
                 l.pending);
          watermark = l.watermark;
          covered = l.covered;
          seen = Keys.of_array l.seen;
        })
      img.lanes
  in
  Array.blit lanes 0 t.lanes 0 (Array.length lanes);
  (match img.cursor with
  | Some { Position.ts; lane } ->
    t.cursor_ts <- ts;
    t.cursor_lane <- lane
  | None ->
    t.cursor_ts <- min_int;
    t.cursor_lane <- -1);
  t.executed <- img.executed;
  t.late <- img.late;
  t.seen_size <- Array.fold_left (fun acc l -> acc + Array.length l.seen) 0 img.lanes
