(** Latency provenance: reconstruct each committed op's critical path
    from the journal and decompose its commit latency into named
    components.

    The reconstruction walks backwards from the op's first [Commit]
    event. In a single-threaded simulation, whatever a node does at
    instant T happens inside the latest handler that ran there, so the
    causal predecessor of activity at a node is the most recent
    message delivery at that node; a delivery's predecessor is its
    send at the source. The walk alternates node-resident intervals
    with wire intervals, clamped to start no earlier than the submit
    instant, so the collected intervals tile [submit, commit] exactly
    — components always sum to the end-to-end commit latency, for
    every protocol, with no per-protocol knowledge.

    Components:
    - [Client_wait]: time resident at the submitting client
      (typically ~0: handlers send immediately).
    - [Request_transit]: the first hop, client to coordinator/replica.
    - [Node_wait]: time resident at replicas between deliveries and
      the next critical-path send (wait-for-quorum, service queues).
    - [Sched_wait]: the part of [Node_wait] covered by a protocol's
      ["sched_wait"] phase spans — Domino's scheduled-arrival wait.
    - [Sync_wait]: the part of [Node_wait] covered by stable storage's
      ["sync_wait"] phase spans — time the critical path spent waiting
      for an fsync barrier. Ranked below [Sched_wait] where the two
      overlap, so the components still tile the latency exactly.
    - [Quorum_transit]: intermediate replica-to-replica hops.
    - [Reply_transit]: the final hop that taught the client. *)

open Domino_sim

type component =
  | Client_wait
  | Request_transit
  | Node_wait
  | Sched_wait
  | Sync_wait
  | Quorum_transit
  | Reply_transit

val components : component list
(** All components, in a fixed presentation order. *)

val component_name : component -> string

type breakdown = {
  op : Journal.opid;
  submitted_at : Time_ns.t;
  committed_at : Time_ns.t;
  parts : (component * Time_ns.span) list;
      (** every component exactly once, in {!components} order *)
}

val latency : breakdown -> Time_ns.span
(** [committed_at - submitted_at]. *)

val total : breakdown -> Time_ns.span
(** Sum of the parts; equals {!latency} by construction. *)

val analyze : Journal.t -> breakdown list
(** One breakdown per op with both a [Submit] and a [Commit] event in
    the journal, in first-commit order. Costs O(E + R·log S) for E
    journal events, R resident intervals on the critical paths and S
    phase spans per node. *)

val record : Metrics.t -> breakdown list -> unit
(** Fill [prov.<component>_ms] histograms (and the [prov.ops] counter)
    in the registry. *)

val to_table : breakdown list -> Domino_stats.Tablefmt.t
(** Per-component mean / p95 / share-of-total summary. *)
