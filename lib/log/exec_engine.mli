(** In-order execution of a decided log (§5.7).

    Domino executes a committed request only once every earlier log
    position is decided and executed, and so do the slot-ordered
    baselines: Multi-Paxos, Mencius and Fast Paxos run one engine per
    replica as well (one lane of dense slots for Multi-Paxos and Fast
    Paxos, one lane per slot owner for Mencius), so the engine is each
    replica's one execution book. Positions form lanes (Domino's are
    its n DM lanes and the DFP lane, see {!Position}); each lane feeds
    this engine two kinds of progress:

    - {b explicit decisions}: a committed operation (or an explicit
      no-op from recovery) at one position;
    - {b a watermark}: a monotonically increasing timestamp [W] meaning
      "every position of this lane with timestamp <= W that has no
      explicit decision is a no-op" — the compressed no-op fill of
      §5.3.2/§5.5 (replicas piggyback their clock T; the coordinator
      and DM leaders turn it into decided-noop coverage).

    The engine executes explicit operations in global position order as
    soon as all lanes' coverage reaches them, invoking [on_exec].
    No-ops execute implicitly (they do not touch the state machine).

    Duplicate decisions (e.g. a replica that learned a commit both
    directly and from the coordinator) are detected and dropped. A
    decision arriving for a position already passed as a no-op would be
    a protocol-safety bug; it is dropped but counted in
    [late_decisions] so tests can assert it never happens. *)

open Domino_sim

type 'op t

val create : n_lanes:int -> on_exec:(Position.t -> 'op -> unit) -> 'op t

val decide_op : 'op t -> Position.t -> 'op -> unit
(** Record a committed operation. [Position.lane] must be < [n_lanes]. *)

val decide_noop : 'op t -> Position.t -> unit
(** Record an explicit no-op decision (slow-path recovery outcome). *)

val set_watermark : 'op t -> lane:int -> Time_ns.t -> unit
(** Raise a lane's no-op watermark (monotone: lower values ignored). *)

val watermark : 'op t -> lane:int -> Time_ns.t

val covered : 'op t -> lane:int -> Time_ns.t
(** The lane's coverage: its watermark extended by the contiguous run
    of executed positions right above it. Every position of the lane up
    to it is decided; with one lane of dense slots it is the last
    executed slot, and [covered + 1] the next one to run. *)

val is_pending : 'op t -> Position.t -> bool
(** Decided but not yet executed (parked behind an undecided
    position). *)

val frontier : 'op t -> Position.t option
(** The last globally executed-or-covered position, if any explicit
    operation has executed. *)

val executed_ops : 'op t -> int
(** Number of explicit operations executed so far. *)

val pending_ops : 'op t -> int
(** Explicit decisions waiting for coverage. *)

val executed_held : 'op t -> int
(** Executed timestamps still held, over all lanes, to tell a duplicate
    decision from a late one. Once more than 4096 are held, a watermark
    raise drops those at or below every lane's watermark. *)

val late_decisions : 'op t -> int
(** Decisions that arrived for positions already passed — must stay 0
    in a correct protocol run. *)

(** {2 Snapshots}

    An engine's whole state as plain data, for a protocol's WAL
    snapshot: restoring the image into a fresh engine rebuilds what
    re-applying every decision and watermark behind it would. *)

type 'op lane_image = {
  watermark : Time_ns.t;
  covered : Time_ns.t;
  pending : (Time_ns.t * 'op option) list;
      (** decided, not yet executed, by timestamp; [None] is an
          explicit no-op *)
  seen : Time_ns.t array;  (** executed timestamps still held *)
}

type 'op image = {
  lanes : 'op lane_image array;
  cursor : Position.t option;  (** {!frontier} *)
  executed : int;  (** {!executed_ops} *)
  late : int;  (** {!late_decisions} *)
}

val image : 'op t -> 'op image

val restore : 'op t -> 'op image -> unit
(** Replace the engine's state with [image] (taken from an engine with
    as many lanes). Nothing executes: [on_exec] is not called.
    @raise Invalid_argument on a lane-count mismatch. *)
