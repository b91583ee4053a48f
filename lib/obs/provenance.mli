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
    phase spans per node: the indexes are arrays over node ids and
    message seqs, filled in three passes over the events, and an op id
    is hashed only to find its submit and its op-tagged spans (Domino's
    [sched_wait]), which are not looked up at all in a journal without
    any. *)

val record : Metrics.t -> breakdown list -> unit
(** Fill [prov.<component>_ms] histograms (and the [prov.ops] counter)
    in the registry. *)

val to_table : breakdown list -> Domino_stats.Tablefmt.t
(** Per-component mean / p95 / share-of-total summary. *)

(** {2 One op's span tree}

    The [--trace-op] query: the life of a single operation, rebuilt
    from journal events with the same causality rule as {!analyze}. *)

type focus
(** A streaming filter that keeps the events of one operation: the
    [nth] (0-based) [Submit] it observes, and from then on every
    [Submit], [Commit], [Execute], send and delivery tagged with that
    op. Installed as a {!Journal.add_tap}, it sees the whole stream, so
    the tree stays exact however far the ring has overwritten. *)

val focus : int -> focus
(** [focus nth] keeps the [nth] submitted operation. Raises
    [Invalid_argument] when [nth < 0]. *)

val observe : focus -> Journal.event -> unit
(** Feed one event, in record order (the tap). *)

val attach : focus -> Journal.t -> unit
(** Install the focus as a tap on the journal. It reads the detail tier
    (the op's sends and deliveries), so the journal records detail
    events from then on, even a one-slot throwaway ring
    ({!Journal.add_tap}). *)

val focused : focus -> Journal.event list
(** The kept events, in record order; empty until the [nth] submit. *)

val span_tree : Journal.event list -> string
(** One op's life as an indented tree: submit at the root, each message
    as [cls src->dst @ send (+delay)] nested under the delivery that
    caused it, commit and executions as leaves. The op is the first
    event's that carries one; events of other ops, and kinds other than
    those {!focus} keeps, are skipped. Deterministic: same events, same
    bytes. Empty string when no event qualifies. *)
