open Domino_sim

type outcome = Fast | Slow

let window = 50
let target = 0.95
let giveup = 0.5
let step = Time_ns.ms 2
let max_extra = Time_ns.ms 32

type t = {
  baseline : Time_ns.span;
  outcomes : bool array;  (** ring buffer: true = fast *)
  mutable size : int;
  mutable next : int;
  mutable fast : int;  (** fast outcomes currently in the ring *)
  mutable extra : Time_ns.span;
}

let create ~baseline =
  {
    baseline;
    outcomes = Array.make window false;
    size = 0;
    next = 0;
    fast = 0;
    extra = baseline;
  }

let fast_rate t =
  if t.size = 0 then 1. else float_of_int t.fast /. float_of_int t.size

let adjust t =
  let rate = fast_rate t in
  if t.size >= window / 2 then begin
    if rate < target then t.extra <- Stdlib.min max_extra (t.extra + step)
    else if rate >= 1. -. ((1. -. target) /. 2.) then
      (* Comfortably above target: decay toward the baseline. *)
      t.extra <- Stdlib.max t.baseline (t.extra - (step / 4))
  end

let record t outcome =
  let fast = outcome = Fast in
  if t.size = window then begin
    (* Overwriting the oldest entry. *)
    if t.outcomes.(t.next) then t.fast <- t.fast - 1
  end
  else t.size <- t.size + 1;
  t.outcomes.(t.next) <- fast;
  if fast then t.fast <- t.fast + 1;
  t.next <- (t.next + 1) mod window;
  adjust t

let extra_delay t = t.extra

let should_avoid_dfp t = t.size >= window / 2 && fast_rate t < giveup
