open Domino_net
open Domino_smr

(** The assembled Domino protocol.

    [create] wires up, on one network: a {!Replica} per configured
    replica node (with the {!Dfp_coordinator} co-located on the
    configured coordinator replica), and a {!Client} on every other
    node. Lost DFP operations are rescued through the coordinator's
    own DM lane (§5.3.3). *)

type t

type stats = {
  dfp_fast_decisions : int;  (** DFP positions decided on the fast path *)
  dfp_slow_decisions : int;  (** positions decided via coordinated recovery *)
  dfp_conflicts : int;  (** client ops that lost their DFP position *)
  dfp_submissions : int;  (** requests clients sent via DFP *)
  dm_submissions : int;  (** requests clients sent via DM *)
  late_decisions : int;  (** execution-safety violations; must be 0 *)
}

val create : Protocol_intf.Group.env -> Config.t -> t
(** Build Domino on [env.make_net]'s network with [cfg]'s replicas and
    coordinator; [env.leader] and [env.coordinator_of] are not read.
    [env.stores] (one per replica, indexed like [cfg.replicas]) hold
    each node's durable state; the coordinator shares the co-located
    replica's store. Installs the wipe-restart hooks
    ({!Fifo_net.set_wipe_hook}) for every replica. A positive
    [env.params.retry_timeout] arms every client's request retry
    ({!Client.retry}) from the [retry_*] params.
    @raise Invalid_argument if [cfg.replicas] differs from
    [env.replicas]. *)

val submit : t -> Op.t -> unit
(** Submit from [op.client]'s client library. *)

val client : t -> Nodeid.t -> Client.t
(** The client instance running on a node (for inspection in tests). *)

val replica : t -> int -> Replica.t

val stats : t -> stats

val recover : t -> int -> Domino_store.Store.record list -> unit
(** What a wiped replica does at its restart, done at once: drop
    replica [i]'s volatile state (and the co-located coordinator's),
    then replay [records] — a store's snapshot records and log suffix,
    as {!Domino_store.Store.recover} returns them. *)

val recovery_state : t -> int -> (string * int list) list
(** Replica [i]'s rebuilt state ({!Replica.recovery_state}), with the
    coordinator's ({!Dfp_coordinator.recovery_state}) and the decision
    stream's sequence numbers when it is co-located: replaying a
    snapshot and its suffix must leave the same fields as replaying the
    whole log, DM instances aside (a snapshot keeps only those still
    pending). *)

module Api : Protocol_intf.S with type t = t
(** The unified-API module, named "domino" ([Protocols.Domino]). It
    derives the {!Config.t} from [env]: [env.leader] is the coordinator,
    and [env.params] carries [additional_delay], [percentile],
    [every_replica_learns] and [adaptive]. *)
