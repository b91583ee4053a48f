(** Name -> runner registry of the paper's tables and figures.

    One entry per reproducible experiment in `lib/exp`, dispatched by
    the CLI's [experiment] subcommand. Entries run at quick or paper
    scale and return their rendered tables; printing and parallel
    [--jobs] policy (via {!Domino_par.Par.set_jobs}) belong to the
    caller. *)

type entry = {
  id : string;
  describe : string;
  aliases : string list;  (** alternate ids, e.g. [fig4] -> [geometry] *)
  run : quick:bool -> seed:int64 -> Domino_stats.Tablefmt.t list;
  smoke :
    (seed:int64 ->
    ?faults:Domino_fault.Plan.t ->
    ?timeline:Domino_obs.Timeline.agg ->
    ?journal:Domino_obs.Journal.t ->
    unit ->
    Domino_obs.Journal.t)
    option;
      (** a short flight-recorded run of the experiment, for
          [--journal-out]/[--perfetto-out]/[--timeline-out]/[--faults]/
          [--check]; [None] where one would add nothing (input tables,
          trace analyses). [timeline] is fed online during the run
          (byte-identical to offline replay of the journal); the run
          records into [journal], by default a fresh full ring *)
}

val all : entry list
(** In the paper's presentation order. *)

val find : string -> entry option
(** Lookup by [id] or alias. *)
