(** Delay distributions for link jitter and service times.

    A [t] is a non-negative duration distribution sampled with an
    {!Rng.t}. The WAN model composes a constant propagation delay with
    one of these for queueing/processing jitter. *)

type t =
  | Constant of float  (** always [c] milliseconds *)
  | Uniform of float * float  (** uniform in [\[lo, hi\]] ms *)
  | Exponential of float  (** exponential with [mean] ms *)
  | Lognormal of { median_ms : float; sigma : float }
      (** lognormal with given median (ms) and log-space sigma; heavy
          right tail, the usual shape of WAN jitter *)
  | Shifted of float * t  (** [Shifted (c, d)]: [c] ms plus a draw of [d] *)
  | Mixture of (float * t) list
      (** weighted mixture; weights need not sum to 1, they are
          normalised *)

val sample_ms : t -> Rng.t -> float
(** Draw a value in milliseconds; clamped to be >= 0. *)

val mean_ms : t -> float
(** Analytic mean in ms (exact for all constructors). *)
