(** Nanosecond-resolution simulated time.

    Domino identifies DFP log positions with nanosecond timestamps
    (paper §5.3), so the whole simulator works in integer nanoseconds.
    [t] is an absolute instant since the simulation epoch; [span] is a
    duration. Both are plain (63-bit) integers, which covers ~146 years
    of simulated time. *)

type t = int
(** Absolute instant, in nanoseconds since the simulation epoch. *)

type span = int
(** Duration in nanoseconds. May be negative for differences. *)

val zero : t

val ns : int -> span
val us : int -> span
val ms : int -> span
val sec : int -> span

val of_ms_f : float -> span
(** [of_ms_f x] is [x] milliseconds as a span, rounded to nanoseconds. *)

val to_ms_f : span -> float
val to_sec_f : span -> float

val add : t -> span -> t
val diff : t -> t -> span

val min : t -> t -> t
val max : t -> t -> t

val pp : Format.formatter -> t -> unit
(** Pretty-prints a time with an adaptive unit, e.g. ["12.5ms"]. *)

val pp_ms : Format.formatter -> t -> unit
(** Pretty-prints a time in milliseconds, e.g. ["12.500ms"]. *)
