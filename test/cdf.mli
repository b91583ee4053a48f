(** Empirical CDFs, rendered the way the paper's figures are read.

    The paper's latency figures (7, 8, 10) are CDFs with dashed lines
    at 0.5 and 0.95; a CDF prints as a fixed set of (fraction, value)
    rows so two protocols can be compared at the same quantiles. No
    experiment table prints one today, so the module lives with the
    tests. *)

type t

val of_list : float list -> t

val count : t -> int

val value_at : t -> float -> float
(** [value_at t frac] is the [frac]-quantile, [frac] in [\[0, 1\]]. *)

val fraction_below : t -> float -> float
(** [fraction_below t x] is the empirical P(X <= x). *)

val standard_rows : t -> (float * float) list
(** The (fraction, value) rows benches print: 1..99% in 5% steps plus
    0.95 and 0.99 markers. *)
