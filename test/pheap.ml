open Domino_sim

type 'a entry = {
  time : Time_ns.t;
  seq : int;
  value : 'a;
  mutable dead : bool;
}

type 'a t = {
  mutable data : 'a entry array;
  mutable size : int;
  mutable next_seq : int;
  mutable live : int;
}

type 'a handle = 'a entry
(* A handle is the entry itself; [cancel] flips its [dead] bit. Popped
   entries are also marked dead so a late [cancel] is a no-op. *)

let create () = { data = [||]; size = 0; next_seq = 0; live = 0 }

let length t = t.live

let is_empty t = t.live = 0

let heap_size t = t.size

let before a b = a.time < b.time || (a.time = b.time && a.seq < b.seq)

let swap t i j =
  let tmp = t.data.(i) in
  t.data.(i) <- t.data.(j);
  t.data.(j) <- tmp

let rec sift_up t i =
  if i > 0 then begin
    let parent = (i - 1) / 2 in
    if before t.data.(i) t.data.(parent) then begin
      swap t i parent;
      sift_up t parent
    end
  end

let rec sift_down t i =
  let l = (2 * i) + 1 and r = (2 * i) + 2 in
  let smallest = ref i in
  if l < t.size && before t.data.(l) t.data.(!smallest) then smallest := l;
  if r < t.size && before t.data.(r) t.data.(!smallest) then smallest := r;
  if !smallest <> i then begin
    swap t i !smallest;
    sift_down t !smallest
  end

let grow t entry =
  let cap = Array.length t.data in
  if t.size = cap then begin
    let ncap = if cap = 0 then 16 else 2 * cap in
    let ndata = Array.make ncap entry in
    Array.blit t.data 0 ndata 0 t.size;
    t.data <- ndata
  end

let push t ~time value =
  let entry = { time; seq = t.next_seq; value; dead = false } in
  t.next_seq <- t.next_seq + 1;
  grow t entry;
  t.data.(t.size) <- entry;
  t.size <- t.size + 1;
  t.live <- t.live + 1;
  sift_up t (t.size - 1);
  entry

(* Drop every dead entry and rebuild the heap in place (Floyd
   heapify). The (time, seq) key is a total order, so pop order is
   independent of heap shape and compaction preserves determinism. *)
let compact t =
  let j = ref 0 in
  for i = 0 to t.size - 1 do
    let e = t.data.(i) in
    if not e.dead then begin
      t.data.(!j) <- e;
      incr j
    end
  done;
  t.size <- !j;
  for i = (t.size / 2) - 1 downto 0 do
    sift_down t i
  done;
  if t.size = 0 then t.data <- [||]
  else begin
    (* Copy into a right-sized array: releases the dead entries (and
       their closures) still referenced by the old backing store. *)
    let cap = Array.length t.data in
    let ncap =
      if cap > 16 && t.size <= cap / 4 then Stdlib.max 16 (2 * t.size) else cap
    in
    let ndata = Array.make ncap t.data.(0) in
    Array.blit t.data 0 ndata 0 t.size;
    t.data <- ndata
  end

let cancel t handle =
  if not handle.dead then begin
    handle.dead <- true;
    t.live <- t.live - 1;
    (* Lazy deletion must not let cancellation-heavy workloads grow the
       heap unboundedly: once the dead outnumber the live, sweep. *)
    if t.size >= 16 && t.size - t.live > t.size / 2 then compact t
  end

let pop_min t =
  let entry = t.data.(0) in
  t.size <- t.size - 1;
  if t.size > 0 then begin
    t.data.(0) <- t.data.(t.size);
    sift_down t 0
  end;
  entry

let rec pop t =
  if t.size = 0 then None
  else begin
    let entry = pop_min t in
    if entry.dead then pop t
    else begin
      entry.dead <- true;
      t.live <- t.live - 1;
      Some (entry.time, entry.value)
    end
  end

(* Pop the minimum live entry only if it is due at or before [limit]:
   one root scan serves both the deadline check and the pop, where
   [peek_time] followed by [pop] walked the dead prefix twice. *)
let rec pop_due t ~limit =
  if t.size = 0 then None
  else begin
    let entry = t.data.(0) in
    if entry.dead then begin
      ignore (pop_min t);
      pop_due t ~limit
    end
    else if entry.time > limit then None
    else begin
      let entry = pop_min t in
      entry.dead <- true;
      t.live <- t.live - 1;
      Some (entry.time, entry.value)
    end
  end

let rec peek_time t =
  if t.size = 0 then None
  else begin
    let entry = t.data.(0) in
    if entry.dead then begin
      ignore (pop_min t);
      peek_time t
    end
    else Some entry.time
  end
