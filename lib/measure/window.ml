open Domino_sim

type t = {
  window : Time_ns.span;
  (* Circular buffer of (time, value), oldest at [head]. *)
  mutable times : Time_ns.t array;
  mutable values : Time_ns.span array;
  mutable head : int;
  mutable size : int;
  mutable last_added : Time_ns.span option;
  (* The live values as a sorted multiset, maintained incrementally on
     add/expire so {!percentile} is a pair of array reads instead of a
     copy + sort per call. [sorted.(0 .. size-1)] always equals the
     ascending sort of the live ring values; inserts and removals are a
     binary search plus a shift, which for the ~100-element windows the
     estimator keeps is far cheaper than the O(n log n) sort this
     replaces — percentile queries dominated whole simulation runs
     before. The shifts are plain loops, not [Array.blit]: on an array
     in the major heap OCaml 5's blit calls [caml_modify] per element,
     since it cannot know the elements are ints. *)
  mutable sorted : Time_ns.span array;
}

let initial_capacity = 64

let create ~window =
  if window <= 0 then invalid_arg "Window.create: window must be positive";
  {
    window;
    times = Array.make initial_capacity 0;
    values = Array.make initial_capacity 0;
    head = 0;
    size = 0;
    last_added = None;
    sorted = Array.make initial_capacity 0;
  }

let capacity t = Array.length t.times

(* Leftmost index in [sorted.(0 .. size-1)] holding a value >= [v]
   ([size] if none): the insertion point that keeps equal values
   adjacent and the array ascending. *)
let lower_bound t v =
  let lo = ref 0 and hi = ref t.size in
  while !lo < !hi do
    let mid = (!lo + !hi) lsr 1 in
    if t.sorted.(mid) < v then lo := mid + 1 else hi := mid
  done;
  !lo

let sorted_insert t v =
  let i = lower_bound t v in
  let a = t.sorted in
  for j = t.size downto i + 1 do
    a.(j) <- a.(j - 1)
  done;
  a.(i) <- v

let sorted_remove t v =
  let i = lower_bound t v in
  (* The value is present by invariant: it was inserted on add and is
     removed exactly once, on expiry. *)
  let a = t.sorted in
  for j = i to t.size - 2 do
    a.(j) <- a.(j + 1)
  done

let grow t =
  let cap = capacity t in
  let ncap = 2 * cap in
  let ntimes = Array.make ncap 0 and nvalues = Array.make ncap 0 in
  for i = 0 to t.size - 1 do
    let src = (t.head + i) mod cap in
    ntimes.(i) <- t.times.(src);
    nvalues.(i) <- t.values.(src)
  done;
  t.times <- ntimes;
  t.values <- nvalues;
  t.head <- 0;
  let nsorted = Array.make ncap 0 in
  for i = 0 to t.size - 1 do
    nsorted.(i) <- t.sorted.(i)
  done;
  t.sorted <- nsorted

let expire t ~now =
  let cutoff = now - t.window in
  while t.size > 0 && t.times.(t.head) < cutoff do
    sorted_remove t t.values.(t.head);
    t.head <- (t.head + 1) mod capacity t;
    t.size <- t.size - 1
  done

let add t ~now value =
  expire t ~now;
  if t.size = capacity t then grow t;
  let idx = (t.head + t.size) mod capacity t in
  t.times.(idx) <- now;
  t.values.(idx) <- value;
  sorted_insert t value;
  t.size <- t.size + 1;
  t.last_added <- Some value

let length t ~now =
  expire t ~now;
  t.size

let percentile t ~now p =
  expire t ~now;
  if t.size = 0 then None
  else begin
    let live = t.sorted in
    let p = Float.max 0. (Float.min 100. p) in
    let rank = p /. 100. *. float_of_int (t.size - 1) in
    let lo = int_of_float (floor rank) in
    let hi = int_of_float (ceil rank) in
    let v =
      if lo = hi then live.(lo)
      else begin
        let frac = rank -. float_of_int lo in
        live.(lo)
        + int_of_float (frac *. float_of_int (live.(hi) - live.(lo)))
      end
    in
    Some v
  end

let last t = t.last_added

let clear t =
  t.head <- 0;
  t.size <- 0;
  t.last_added <- None
