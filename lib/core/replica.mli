open Domino_sim
open Domino_net
open Domino_smr

(** A Domino replica.

    Every replica simultaneously plays four roles:
    - {b DFP acceptor}: votes client proposals into timestamp-indexed
      positions if they arrive before their timestamp, implicitly
      accepting no-ops for expired empty positions (§5.3); votes and
      the no-op watermark T travel to the coordinator on one FIFO
      channel;
    - {b DM leader} of its own lane: assigns arriving requests a future
      timestamp (now + its estimated majority-replication latency
      [L_r]) and replicates them with one accept round (§5.5);
    - {b DM acceptor} for the other leaders' lanes;
    - {b executor}: applies decided operations in global log order,
      merging the coordinator's DFP decided watermark with the DM
      leaders' lane watermarks (§5.7).

    It also answers measurement probes with its local clock reading and
    its current [L_r] (§5.4, §5.6), and probes its peers to maintain
    that estimate. *)

type t

val create :
  net:Message.msg Fifo_net.t ->
  cfg:Config.t ->
  index:int ->
  observer:Observer.t ->
  store:Domino_store.Store.t ->
  unit ->
  t
(** Builds the replica state for [cfg.replicas.(index)]. The node's
    network handler is installed by {!Domino.create}, which routes
    messages here via {!handle} (and to the coordinator when
    co-located). Starts the probing and heartbeat/watermark timers.
    [store] is the node's stable store; the replica writes its own WAL
    records to it (journal kinds "dv", "dp2a", "dc", "dw", "dmp", "dmc",
    "dmw"; a co-located coordinator shares it with its own). *)

val handle : t -> src:Nodeid.t -> Message.msg -> unit

val wipe_volatile : t -> unit
(** Drop everything an amnesiac reboot loses: acceptor state, execution
    engine, estimator, DM lanes. The decision-stream sync flag drops
    too, forcing a pull resync. Called from the node's wipe hook (see
    {!Domino.create}); pair with {!replay_record} over the store's
    surviving records. *)

val replay_record : t -> Domino_store.Store.record -> unit
(** Re-apply one surviving WAL record of this replica's (in log order).
    Records it does not own — a co-located coordinator's — are
    ignored. *)

val set_replaying : t -> bool -> unit
(** While true, replayed executions skip the observer — they were
    already reported before the wipe. *)

val dm_propose : t -> Op.t -> unit
(** Act as DM leader for this operation (used for client DM requests
    and for coordinator rescues). *)

type storage_stats = {
  decisions_held : int;
      (** explicit decisions waiting for coverage plus executed
          timestamps held for duplicate detection, over all lanes *)
  dfp_positions_covered : int;
      (** DFP log positions decided so far: the lane's watermark + 1 *)
}

val storage_stats : t -> storage_stats
(** The decided log's storage (§6), read from the replica's execution
    engine, the one copy of it: each lane's no-op run is one coverage
    integer and executed operations leave the pending queue, so
    [decisions_held] stays in the thousands while
    [dfp_positions_covered] grows by a billion per simulated second. *)

val late_decisions : t -> int
(** Safety telemetry from the execution engine; must be 0. *)

val exec_frontier_lane_watermark : t -> lane:int -> Time_ns.t
