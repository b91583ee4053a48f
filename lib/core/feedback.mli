open Domino_sim

(** Fast-path feedback control (the paper's stated future work, §5.4).

    "Part of our future work is to design a feedback control system
    that monitors DFP's fast path success rate and have clients
    adaptively adjust their request timestamps or switch between DFP
    and DM."

    This controller implements exactly that, per client:

    - every DFP request resolves as [Fast] (learned from q votes) or
      [Slow] (resolved by the coordinator or a DM rescue);
    - over a sliding window of recent outcomes, if the fast-path rate
      drops below [target], the controller raises the client's extra
      delay by [step] (absorbing mispredictions), up to [max_extra];
    - if the rate stays above [target] with margin, it decays the extra
      delay back toward the configured baseline — so a transient
      congestion episode does not permanently tax execution latency;
    - while the rate is catastrophically low (below [giveup]), it
      reports {!should_avoid_dfp} so the client can prefer DM outright
      (the §5.4 "switch between DFP and DM" arm).

    The controller is pure bookkeeping: the {!Client} consults it per
    request. *)

type t

type outcome = Fast | Slow

val create : baseline:Time_ns.span -> t
(** A controller over a [window] of 50 outcomes, with [target] 0.95,
    [giveup] 0.5, [step] 2 ms and [max_extra] 32 ms. [baseline] is the
    configured additional delay the controller starts at and never
    goes below. *)

val record : t -> outcome -> unit

val extra_delay : t -> Time_ns.span
(** Current additional delay to apply to DFP request timestamps. *)

val should_avoid_dfp : t -> bool
(** True while the recent fast-path rate is below the give-up
    threshold (with at least half a window of data). *)

val fast_rate : t -> float
(** Observed fast-path rate over the window; 1.0 when no data. *)
