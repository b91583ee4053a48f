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

val create :
  net:Message.msg Fifo_net.t ->
  cfg:Config.t ->
  observer:Observer.t ->
  ?stores:Domino_store.Store.t array ->
  ?retry:Client.retry ->
  unit ->
  t
(** [stores] (one per replica, indexed like [cfg.replicas]) hold each
    node's durable state; the coordinator shares the co-located
    replica's store. Fresh default stores when omitted. Installs the
    wipe-restart hooks ({!Fifo_net.set_wipe_hook}) for every replica.
    [retry] arms every client's request retry ({!Client.retry}); the
    registry entry builds it from [env.params] when [retry_timeout > 0]. *)

val submit : t -> Op.t -> unit
(** Submit from [op.client]'s client library. *)

val client : t -> Nodeid.t -> Client.t
(** The client instance running on a node (for inspection in tests). *)

val replica : t -> int -> Replica.t

val stats : t -> stats

val committed_count : t -> int
(** Operations some client has learned committed (DFP or DM). *)

module Api : Protocol_intf.S with type t = t
(** The registry entry ("domino"). Config knobs travel in [env.params]:
    [additional_delay_ms], [percentile], [every_replica_learns],
    [adaptive], [force_dfp] (booleans as 0/1). *)
