(** Deterministic pseudo-random number generation (SplitMix64).

    Every run of the simulator is reproducible from a single seed.
    SplitMix64 is fast, has a one-word state, and supports [split] to
    derive statistically independent streams for subsystems (one per
    link, one per workload client, ...), so adding randomness to one
    component never perturbs another. *)

type t

val create : int64 -> t
(** [create seed] makes a fresh generator. Equal seeds give equal
    streams. *)

val split : t -> t
(** [split t] advances [t] and returns a new generator whose stream is
    independent of [t]'s subsequent outputs. *)

val int64 : t -> int64
(** Next raw 64-bit output. *)

val float : t -> float
(** Uniform in [\[0, 1)]. *)

val int : t -> int -> int
(** [int t bound] is uniform in [\[0, bound)]. [bound] must be > 0. *)

val uniform : t -> float -> float -> float
(** [uniform t lo hi] is uniform in [\[lo, hi)]. *)

val normal : t -> mean:float -> std:float -> float
(** Gaussian via Box–Muller. *)

val exponential : t -> mean:float -> float

val lognormal : t -> mu:float -> sigma:float -> float
(** [exp (normal mu sigma)]. *)
