(** Time-bounded sliding window of delay samples.

    Domino predicts delays from "the n-th percentile value in the past
    time period (i.e., window size)" (§3). A [t] keeps (timestamp,
    value) pairs, expires entries older than the window, and answers
    percentile queries. The default configuration in the paper — and in
    this repo — is the 95th percentile over a 1-second window. *)

open Domino_sim

type t

val create : window:Time_ns.span -> t
(** [create ~window] keeps samples whose age is <= [window]. *)

val add : t -> now:Time_ns.t -> Time_ns.span -> unit
(** Record a sample observed at [now]. [now] values must be
    non-decreasing across calls. *)

val length : t -> now:Time_ns.t -> int
(** Live (unexpired) sample count. *)

val percentile : t -> now:Time_ns.t -> float -> Time_ns.span option
(** [percentile t ~now p] is the [p]-th percentile (nearest-rank with
    interpolation) of the live samples, or [None] when empty. *)

val last : t -> Time_ns.span option
(** Most recently added sample, regardless of expiry. *)

val clear : t -> unit
