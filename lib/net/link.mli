(** Directed link delay model.

    One [t] models one direction of a datacenter pair: a (mutable) base
    one-way propagation delay plus a stateful {!Jitter} process, and a
    loss probability (losses surface as TCP retransmission delay, not
    as drops — Domino runs over TCP, §5.1). The base delay is mutable
    so experiments can emulate route changes mid-run (paper §7.3,
    Figure 12). *)

open Domino_sim

type t

val create :
  ?jitter:Jitter.params ->
  ?loss:float ->
  base_owd:Time_ns.span ->
  Rng.t ->
  t
(** [create ~base_owd rng] with defaults: jitter {!Jitter.default_wan},
    [loss = 1e-4]. A lost message costs a 200 ms retransmission
    timeout. The link owns a split of [rng]. *)

val local : Rng.t -> t
(** Intra-datacenter link: ~0.25 ms OWD, calm jitter. *)

val base_owd : t -> Time_ns.span

val set_base_owd : t -> Time_ns.span -> unit
(** Emulate a route change: subsequent samples use the new base. *)

val loss : t -> float

val set_loss : t -> float -> unit

val sample : t -> now:Time_ns.t -> Time_ns.span
(** Draw the one-way delay for a message sent at [now]: base + jitter,
    plus the 200 ms RTO penalty with probability [loss]. Always > 0. *)
