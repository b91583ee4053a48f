(** Fault-overlay analysis of a timeline: for every injected fault,
    how deep did throughput dip and how long until it recovered.

    For each [fault.*] start event (crash, wipe, partition, degrade,
    skew) — and each [migrate] or [reconfig.*] lifecycle start the
    timeline surfaces for a live slot migration, membership change,
    leader transfer, or rolling patch — in a {!Timeline.segment}, the
    report gives:

    - the {b baseline} RPS: mean cluster throughput over the 10 windows
      immediately preceding the fault;
    - the {b dip}: minimum windowed RPS between the fault and recovery
      (or segment end), and its depth as a percentage of baseline;
    - the {b time to recover}: sim time from fault injection until
      throughput is back within 10% of baseline for two consecutive
      windows — [nan] when it never
      recovers, the liveness signal [test_chaos] asserts deadlines on;
    - the {b p99 spike}: worst windowed commit p99 during the outage
      vs the baseline's mean p99.

    Deterministic: pure arithmetic over the timeline, so reports are
    byte-identical for any [--jobs]. *)

type report = {
  seg : int;  (** segment ordinal within the timeline *)
  label : string;
  fault : string;  (** the [fault.*] kind, e.g. [crash] *)
  detail : string;
  at_ms : float;
  heal_ms : float;  (** matching heal/recovery event; [nan] if none *)
  baseline_rps : float;  (** [nan] when there is no pre-fault traffic *)
  dip_rps : float;
  dip_pct : float;  (** depth: [100 * (1 - dip/baseline)] *)
  recovered_ms : float;  (** window end when recovered; [nan] if never *)
  ttr_ms : float;  (** [recovered_ms - at_ms]; [nan] if never *)
  p99_base_ms : float;
  p99_spike_ms : float;
}

val analyze : Timeline.t -> report list
(** One report per fault-start event, in journal order per segment.
    Heal events ([recover]/[heal]/[restore], [recovery.up] for wipes
    and rolled nodes, [migrate.done]/[migrate.abort] for migrations,
    [reconfig.done]/[reconfig.abort] for membership changes,
    [reconfig.transfer_done] for leader transfers, and
    [reconfig.roll_done] for rolls) are matched to their start by kind
    and node (or slot, for migrations) — so a roll yields one
    cluster-wide row plus a per-node row for every wiped replica. *)

val to_csv : report list -> string
(** [seg,label,fault,detail,at_ms,heal_ms,baseline_rps,dip_rps,dip_pct,ttr_ms,p99_base_ms,p99_spike_ms];
    [nan] renders empty, commas in free text become [;]. *)

val to_json : report list -> Domino_stats.Json.t

val header : string list
(** The column names of {!cells}. *)

val cells : report -> string list
(** A report's table cells: at, base_rps, dip_rps, dip%, ttr ("never"
    when it never recovered), p99_base and p99_spike — the columns every
    dip table shares, after its own leading ones. *)

val to_table : report list -> Domino_stats.Tablefmt.t
