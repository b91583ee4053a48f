(** Compressed sets of integers as disjoint inclusive ranges.

    Domino's timestamp-indexed log is almost entirely no-ops: one
    billion positions per second, of which a workload touches tens of
    thousands. The paper compresses runs of no-op entries into single
    nodes (§6); this structure is that compression. The library now
    keeps that coverage as one integer per lane ({!Domino_log.Exec_engine});
    this set remains as the building block of the test-only reference
    engine ([Reference_exec_engine]).

    Ranges merge automatically: adding [5,9] to a set containing [1,4]
    yields the single range [1,9]. All operations are O(log k) in the
    number k of stored ranges. *)

type t
(** Immutable. *)

val empty : t

val is_empty : t -> bool

val add : int -> t -> t
(** Add a single point. *)

val add_range : lo:int -> hi:int -> t -> t
(** Add the inclusive range. No-op if [lo > hi]. *)

val mem : int -> t -> bool

val range_count : t -> int
(** Number of stored (maximally merged) ranges — the storage cost. *)

val cardinal : t -> int
(** Number of covered integers. Beware overflow for astronomically
    large ranges; fine for log positions. *)

val next_gap : t -> int -> int
(** [next_gap t x] is the smallest [y >= x] not in [t]. *)

val covered_from : t -> int -> int option
(** [covered_from t x]: if [x] is in [t], the inclusive end of its
    containing range, else [None]. *)

val union : t -> t -> t

val fold_ranges : (lo:int -> hi:int -> 'a -> 'a) -> t -> 'a -> 'a
(** Fold over maximal ranges in increasing order. *)

val to_ranges : t -> (int * int) list

val pp : Format.formatter -> t -> unit
