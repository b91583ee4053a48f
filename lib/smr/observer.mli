open Domino_sim
open Domino_net

(** Observation points shared by every protocol implementation.

    A protocol reports three events per operation:
    - [submit]: the moment the client library accepts the operation
      (emitted by each protocol's [submit], so harnesses no longer
      book-keep submissions by hand);
    - [commit]: the moment the {e submitting client} learns the
      operation is committed (the paper's commit latency, §5);
    - [execute]: the moment a given {e replica} applies the operation
      to its state machine (used for the paper's execution latency,
      measured at the replica closest to the client, §7.2.3).

    Protocols additionally annotate named phase transitions via
    [on_phase] — the flight recorder turns these into journal events
    and timeline slices. [dur] is [0] for an instantaneous transition,
    positive for a span starting at [now] (e.g. Domino's
    ["sched_wait"]: a replica holding a request until its scheduled
    arrival timestamp). [op] is the operation concerned, when there is
    a specific one.

    {!Recorder} is the standard implementation: it timestamps
    submissions and turns the events into latency samples. *)

type t = {
  on_submit : Op.t -> now:Time_ns.t -> unit;
  on_commit : Op.t -> now:Time_ns.t -> unit;
  on_execute : replica:Nodeid.t -> Op.t -> now:Time_ns.t -> unit;
  on_phase :
    node:Nodeid.t ->
    op:Op.t option ->
    name:string ->
    dur:Time_ns.span ->
    now:Time_ns.t ->
    unit;
}

val null : t
(** Discards all events. *)

(** The per-op ledger: one {!Op.Idtbl} whose entry per op holds its
    first-submit instant, whether it committed, and the set of replicas
    that executed it. Commit and execution latency samples are taken
    from it, and the replica set doubles as the at-most-once execution
    filter the shard fabric puts in front of its state machines: client
    retries can drive one op through consensus twice, and a replica must
    apply it once. *)
module Recorder : sig
  type observer = t

  type t

  val create : unit -> t

  val observer : t -> ?exec_replica_for:(Op.t -> Nodeid.t option) -> unit -> observer
  (** The observer to hand to a protocol. [exec_replica_for] selects,
      per operation, the replica whose execution event should produce
      the execution-latency sample (default: record the {e first}
      replica to execute it). It filters nothing: every event reaches
      the ledger. *)

  val note_submit : t -> Op.t -> now:Time_ns.t -> unit
  (** Timestamp a submission. Normally unnecessary: the observer's
      [on_submit] (fired by every protocol's [submit]) calls this. Kept
      public for unit tests that drive a recorder without a protocol. *)

  (** {2 Ledger entry points}

      What the observer's callbacks do, returning what a caller that
      wraps the ledger in its own observer needs. *)

  val submit : t -> Op.t -> now:Time_ns.t -> bool
  (** {!note_submit}; [true] on the op's first submission, [false] on a
      re-submission (a retry), which leaves the first instant in
      place. *)

  val commit : t -> Op.t -> now:Time_ns.t -> float option
  (** Record a commit notification. Only an op's first one is counted
      ({!committed}) and, when the op was submitted inside the
      measurement window, sampled. Every call returns the latency in ms
      since the op's first submission, or [None] if it was never
      submitted. *)

  type execution =
    | Repeat  (** the replica had executed the op already *)
    | Fresh  (** the op's first execution at this replica *)
    | Sample of float
        (** the op's first execution at its sample replica, of a
            submitted op: the latency in ms since its first submission
            (recorded as a sample if that was inside the window) *)

  val execute :
    t -> replica:Nodeid.t -> ?exec_at:Nodeid.t -> Op.t -> now:Time_ns.t ->
    execution
  (** Record [op]'s execution at [replica]. [exec_at] is the op's
      sample replica; without it, the first replica to execute the op
      gives the sample. A [Repeat] is counted ({!repeats}) and changes
      nothing else.
      @raise Invalid_argument if [replica] or [exec_at] is negative or
      not below [Sys.int_size - 1] (the replica set is a bitmask). *)

  val repeats : t -> int
  (** Executions reported for a replica that had already executed the
      op. *)

  val start_measuring : t -> Time_ns.t -> unit
  (** Samples from operations submitted before this instant are
      discarded — the paper uses the middle 60 s of each 90 s run. *)

  val stop_measuring : t -> Time_ns.t -> unit

  val commit_latency_ms : t -> Domino_stats.Summary.t
  val exec_latency_ms : t -> Domino_stats.Summary.t

  val commit_latency_of_client_ms : t -> Nodeid.t -> Domino_stats.Summary.t

  val committed : t -> int
  val submitted : t -> int

  val commit_times : t -> (Op.id * Time_ns.t) list
  (** (id, commit instant) pairs. *)

  val latency_series : t -> (Time_ns.t * float) list
  (** (submit instant, commit latency ms) pairs in submit order, for
      time-series figures (Fig 12). *)
end
