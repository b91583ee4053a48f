open Domino_sim

(** Stateful WAN jitter: the delay process measured in paper §3.

    Azure inter-datacenter delays are not i.i.d. noise: Figure 2 shows
    a level that is nearly constant within any one second and moves
    slowly across minutes, plus rare multi-millisecond congestion
    spikes. That structure is exactly why a percentile over a 1 s
    window predicts the next delay so well (Figure 3) and why Domino's
    fast path rarely fails. A [t] generates that process:

    - a {b level}: lognormal, redrawn at exponentially distributed
      wall-clock epochs (tens of seconds);
    - {b fast noise}: small exponential per-message variation;
    - {b spikes}: with a few percent probability per message, an added
      multi-millisecond delay — the component no percentile predicts,
      which bounds the correct-prediction rate at roughly
      [1 - spike_prob] (the ~94% the paper measures).

    Both the {!Link} delay model and the {!Domino_trace} generator use
    this process, so protocol experiments and trace analyses see the
    same network. *)

type params = {
  level_median_ms : float;
  level_sigma : float;
  level_epoch : Time_ns.span;  (** mean time between level changes *)
  noise_mean_ms : float;
  spike_prob : float;  (** per message *)
  spike_ms : Dist.t;
}

val default_wan : params
(** Calibrated to §3: sub-ms p95 within a window, ~3% spikes, ~30 s
    level epochs. *)

val calm_lan : params
(** Tiny noise, rare spikes: intra-datacenter links. *)

type t

val create : ?params:params -> Rng.t -> t
(** Owns a split of the RNG. *)

val sample_ms : t -> now:Time_ns.t -> float
(** Jitter for a message sent at [now], in milliseconds (>= 0).
    Successive calls must use non-decreasing [now]. *)

val sample : t -> now:Time_ns.t -> Time_ns.span
