(** §6 storage compression of the decided log: after 12 s of Domino on
    Globe, 10 s of them at 200 req/s, how many decisions each replica's execution
    engine holds and how many DFP positions it has covered. The DFP
    lane advances a billion positions per simulated second, yet its
    no-op runs are one coverage integer, so the decisions held stay in
    the thousands. One fixed-seed run, the same at either scale. *)

val run : unit -> Domino_stats.Tablefmt.t
