open Domino_sim

type t = {
  mutable base_owd : Time_ns.span;
  jitter : Jitter.t;
  jitter_params : Jitter.params;
  mutable loss : float;
  rng : Rng.t;
}

(* TCP's minimum retransmission timeout: what one lost segment costs. *)
let rto = Time_ns.ms 200

let create ?(jitter = Jitter.default_wan) ?(loss = 1e-4) ~base_owd rng =
  let rng = Rng.split rng in
  {
    base_owd;
    jitter = Jitter.create ~params:jitter rng;
    jitter_params = jitter;
    loss;
    rng;
  }

let local rng =
  create ~jitter:Jitter.calm_lan ~loss:1e-6 ~base_owd:(Time_ns.us 250) rng

let base_owd t = t.base_owd

let set_base_owd t owd = t.base_owd <- owd

let loss t = t.loss

let set_loss t loss = t.loss <- loss

let sample t ~now =
  let jitter = Jitter.sample t.jitter ~now in
  let penalty =
    if t.loss > 0. && Rng.float t.rng < t.loss then rto else 0
  in
  Stdlib.max 1 (t.base_owd + jitter + penalty)

