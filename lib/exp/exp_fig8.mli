(** Figure 8: commit latency of Domino vs Mencius, EPaxos, Multi-Paxos.

    Three deployments, one client per datacenter at 200 req/s:
    - (a) NA, 3 replicas (WA/VA/QC) — paper medians/p95s:
      Domino 48/70, EPaxos 64/87, Mencius 75/94, Multi-Paxos 107/134;
    - (b) NA, 5 replicas (+CA, TX) — same ordering;
    - (c) Globe, 3 replicas (WA/PR/NSW) — Domino ~86 ms below EPaxos at
      the 95th percentile; below the median Domino tracks EPaxos since
      the co-located half of the clients choose DM. *)

type variant = Na3 | Na5 | Globe

val protocols : Exp_common.protocol list
(** The figure's four contenders, in presentation order: Domino
    (default knobs), EPaxos, Mencius, Multi-Paxos. Exposed so the
    benchmark harness can time the same sweep it prints. *)

val run :
  ?quick:bool -> ?seed:int64 -> variant -> unit -> Domino_stats.Tablefmt.t

val smoke_journal :
  seed:int64 ->
  ?faults:Domino_fault.Plan.t ->
  ?timeline:Domino_obs.Timeline.agg ->
  ?journal:Domino_obs.Journal.t ->
  variant ->
  Domino_obs.Journal.t
(** A 2-second journaled run of the figure's sweep: the flight-recorder
    smoke target behind [experiment <fig8x> --journal-out]. The journal
    is byte-identical for every [--jobs]. [faults] injects the same
    fault plan into every cell of the sweep; [timeline] is fed online
    during the run. The run records into [journal]
    (default: a fresh full ring) and returns it. *)
