(** Positions in Domino's interleaved request log (§5.5).

    A position is a (timestamp, lane) pair. Lanes [0 .. n-1] belong to
    the n DM leaders; lane [n] is DFP. Between any two adjacent DFP
    timestamps sit the DM positions carrying the timestamp of the DFP
    position immediately after them — i.e. at equal timestamp, DM lanes
    order {e before} the DFP lane, and DM lanes order by replica id.
    Comparison is therefore lexicographic on (timestamp, lane). *)

open Domino_sim

type t = { ts : Time_ns.t; lane : int }

val dfp_lane : n_replicas:int -> int
(** The DFP lane index for a given cluster size (= [n_replicas]). *)

val dm : replica:int -> Time_ns.t -> t
val dfp : n_replicas:int -> Time_ns.t -> t

val compare : t -> t -> int
val equal : t -> t -> bool
val pp : Format.formatter -> t -> unit
