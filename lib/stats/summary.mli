(** Summary statistics over float samples.

    Used by every experiment to report medians, tail percentiles and
    confidence intervals the way the paper does (§7.1: 10 runs, 95%
    confidence intervals, CDFs with p50/p95 markers). *)

type t
(** An accumulating bag of samples. *)

val create : unit -> t

val add : t -> float -> unit

val add_list : t -> float list -> unit

val merge : t -> t -> t
(** Union of the two sample bags (neither input is mutated). *)

val count : t -> int

val is_empty : t -> bool

val mean : t -> float
(** Mean; [nan] when empty. *)

val stddev : t -> float
(** Sample standard deviation (n-1 denominator); 0 for n < 2. *)

val minimum : t -> float
val maximum : t -> float

val percentile : t -> float -> float
(** [percentile t p] for [p] in [\[0, 100\]], by linear interpolation
    between closest ranks; [nan] when empty. *)

val median : t -> float

val confidence95 : t -> float
(** Half-width of the 95% confidence interval of the mean (normal
    approximation, 1.96 * stderr); 0 for n < 2. *)

val pp_brief : Format.formatter -> t -> unit
(** One-line [n/mean/p50/p95/p99] rendering. *)
