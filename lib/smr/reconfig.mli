open Domino_sim
open Domino_obs

(** Planned membership reconfiguration and leader transfer for one
    consensus group.

    The membership-epoch state machine is stop-the-world: new submits
    routed to the group are frozen, in-flight ops drain to commit, the
    new configuration is fsynced onto every member of the {e new}
    membership ({!Domino_store.Store.append_sync}), and only then is
    the epoch bump journaled ([reconfig.epoch]) and the change applied
    — a removed replica is taken off the network, an added one is
    readmitted — before the parked submits are released. No op can
    therefore commit across an epoch boundary out of order, which is
    the invariant the chaos checker's reconfig rules verify. The freeze
    and drain, and the fsync barrier, are {!Quiesce.drain} and
    {!Quiesce.persist}. If the drain deadline expires first, the change
    aborts: submits are released, the epoch is untouched, and
    [reconfig.abort] is journaled.

    {!transfer} is the orthogonal graceful operation: hand coordination
    duties from one replica to another without stopping the world,
    through the protocol's {!Protocol_intf.S.control} hook
    (Multi-Paxos drains and flips its leader, Mencius re-steers the
    handed-off coordinator's clients, Domino steers every client's DM
    routing; leaderless protocols accept vacuously).

    {!roll} is the rolling patch: wipe-upgrade every member in turn,
    handing duties off each node before it goes down.

    All stages land in the journal as {!Domino_obs.Journal.Reconfig}
    events, with details leading with [node=<n>] so the dip analyzer
    attributes each transfer and roll step to the replica it touched.

    The orchestrator is callback-driven ({!hooks}): it owns the epoch
    counter, the membership bitmap, and the tracked coordination
    holder, while the shard fabric supplies the router freeze, the
    network crash/readmit/wipe, and the protocol control dispatch. *)

type change =
  | Add of int  (** readmit a (previously removed) replica index *)
  | Remove of int
  | Replace of { node : int; with_ : int }

type hooks = {
  control : Protocol_intf.control -> k:(unit -> unit) -> bool;
  freeze : unit -> unit;
  unfreeze : unit -> int;
  inflight : unit -> int;
  crash_node : int -> unit;
  recover_node : int -> unit;
  wipe : int -> Time_ns.span;
      (** wipe-restart a replica; returns its modeled recovery span *)
}

type t

val create :
  Engine.t ->
  journal:Journal.sink ->
  group:int ->
  n:int ->
  leader:int ->
  stores:Domino_store.Store.t array ->
  hooks:hooks ->
  t
(** [n] is the group's original replica count; quorum arithmetic stays
    over [n], so removals narrow the fault budget instead of shrinking
    quorums (a removal that would leave fewer than a majority of the
    original membership is refused). [leader] seeds the tracked
    coordination holder. *)

val transfer : t -> to_:int -> k:(unit -> unit) -> bool
(** Graceful handoff of the tracked holder's coordination duties to
    [to_]. [false] only when an endpoint is not a member. [k] fires once the protocol reports
    the handoff complete — immediately for steering-only protocols and
    vacuous transfers, after the drain for Multi-Paxos. Journals the
    [reconfig.transfer] / [reconfig.transfer_done] pair. *)

val request : t -> change -> k:(unit -> unit) -> bool
(** Start a membership change; [false] if one is already active or the
    change is invalid against the current membership. [k] fires once,
    on done or abort. Removing the current holder transfers duties
    away first. *)

val roll : t -> dwell:Time_ns.span -> k:(unit -> unit) -> bool
(** Start a rolling wipe-upgrade over the membership at call time,
    driven by the plan verb [roll group=G dwell=SPAN]; [false] if a
    roll is already active. Per node, in ascending order: hand its
    duties off if it holds them ({!transfer}), wipe-restart it
    ([hooks.wipe]), journal its [recovery.up] once the modeled recovery
    span has passed, clear any steering against it (the protocol's
    [Restore] control), and dwell before the next. Nodes no longer
    members when their turn comes are skipped. The campaign is bracketed by [reconfig.roll] /
    [reconfig.roll_done] and each wipe starts with
    [reconfig.roll_node], so {!Domino_obs.Dip} reports one
    cluster-wide row for the roll plus a per-node row for every wipe.
    [k] fires once, after the last node's dwell. *)
