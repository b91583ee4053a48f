(** §6 storage compression of the no-op log: after 10 s of Domino at
    200 req/s on Globe, how many explicit ops, no-op positions and
    stored no-op nodes each replica's decided DFP lane holds. The lane
    advances a billion positions per simulated second, so the point is
    that the stored node count stays tiny. One fixed-seed run, the same
    at either scale. *)

val run : unit -> Domino_stats.Tablefmt.t
