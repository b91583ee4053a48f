open Domino_sim
open Domino_net

(** The unified protocol API.

    Every replication protocol in the repo — the four comparison
    systems and Domino itself — implements {!S} as a first-class
    module, and each is built one way: from its group's environment
    ([S.create]; a standalone Domino run also passes its [Config.t] to
    [Domino.create]). Harnesses (the shard fabric, the standalone
    figure runs, the examples, the conformance tests) construct
    environments and dispatch through the module instead of
    pattern-matching on a protocol variant, so a harness holds no
    per-protocol wiring. [Domino_exp.Protocols] is the one table of
    these modules: a new protocol is one module here and one row there.

    The environment is split in two layers so one simulation can host
    many consensus groups:

    - {!Cluster.env} is shared by every group on an engine: the engine
      itself.
    - {!Group.env} is one group's slice: the builder of its network,
      its replicas and roles, its stable stores, its typed {!params}
      and its harness observer.

    The protocol hands [env.make_net] its message classifier and
    operation extractor; whoever builds the network decides what to do
    with them. The shard fabric instruments every network it builds
    (per-class message counters under the group's metric prefix,
    journal message events, per-op trace attribution); a standalone
    builder may ignore them, or use the classifier as Figure 13 does
    for its per-message CPU cost. *)

type params = {
  additional_delay : Time_ns.span;
      (** Domino: extra delay added to DFP request timestamps *)
  percentile : float;
      (** Domino: percentile used for delay estimates *)
  every_replica_learns : bool;  (** Domino: learner broadcast mode *)
  adaptive : bool;  (** Domino: §5.4 feedback controller *)
  retry_timeout : Time_ns.span;
      (** in-protocol client retry: the {!Retry} policy's first timeout;
          [0] (the default) leaves it unarmed *)
  retry_max_attempts : int;
  retry_failover_after : int;
      (** failed attempts before the client fails over away from its
          coordinator *)
}
(** Protocol knobs, decoded once by the harness with exhaustive
    defaults ({!default_params}) instead of stringly per-call-site
    lookups. Protocols read the fields they care about and ignore the
    rest. *)

val default_params : params

module Cluster : sig
  type env = { engine : Engine.t }
end

module Group : sig
  type env = {
    cluster : Cluster.env;
    make_net :
      'msg.
      classify:('msg -> Msg_class.t) ->
      op_of:('msg -> Op.t option) ->
      'msg Fifo_net.t;
        (** fresh network for the protocol's own message type, spanning
            this group's replicas and its clients. [classify] gives a
            message's cost class, [op_of] the operation it carries, if
            any (bare acks and probes carry none). *)
    replicas : Nodeid.t array;
    leader : Nodeid.t;
        (** Multi-Paxos leader; Fast Paxos / DFP coordinator *)
    coordinator_of : Nodeid.t -> Nodeid.t;
        (** per-client entry replica (Mencius, EPaxos) *)
    observer : Observer.t;
    stores : Domino_store.Store.t array;
        (** one stable store per replica, indexed like [replicas]:
            protocols persist safety-critical state here (fsync before
            externalizing) and rebuild from it after a wipe-restart *)
    params : params;
  }
end

type env = Group.env
(** A protocol is created from its group's environment. *)

type control =
  | Transfer of { from_ : Nodeid.t; to_ : Nodeid.t }
      (** Graceful, non-crash handoff of coordination duties away from
          [from_] toward [to_]: the Multi-Paxos leader role drains and
          flips, the Mencius coordinator lease for clients fronted by
          [from_] is handed to [to_], Domino steers every client's DM
          routing around [from_]. *)
  | Restore of { node : Nodeid.t }
      (** Undo any steering installed against [node] once it is back
          in service (transferred leadership stays where it went). *)

(** A planned operation, driven by the reconfiguration / rolling-patch
    orchestrators. *)

module type S = sig
  type t

  val name : string
  (** Stable key (lowercase, no spaces): the CLI's [--protocol] value
      and the prefix of the protocol's metric keys. *)

  val create : Group.env -> t
  (** Build the protocol instance: make its network through
      [env.make_net] and install its handlers, stores and timers. *)

  val submit : t -> Op.t -> unit
  (** Submit from [op.client]'s node. Must fire the observer's
      [on_submit]. *)

  val committed_count : t -> int
  (** Operations the protocol has reported committed. *)

  val fast_slow_counts : t -> (int * int) option
  (** [(fast, slow)] path commits, for protocols with a fast path
      (Fast Paxos, EPaxos, Domino); [None] otherwise. *)

  val extra_stats : t -> (string * int) list
  (** Protocol-specific counters (stable keys), e.g. Domino's
      [dfp_conflicts]. *)

  val gauges : t -> (string * (unit -> float)) list
  (** Named live gauges for the flight recorder's time-series sampler
      (stable keys, registration order preserved), e.g. Domino's
      estimator headroom over ground-truth OWD. [[]] for protocols
      with nothing to sample. *)

  val control : t -> control -> k:(unit -> unit) -> bool
  (** Ask the protocol to perform a planned operation. [false] if
      unsupported by this protocol (leaderless protocols refuse; the
      continuation is dropped); [true] if accepted, in which case [k]
      fires exactly once when the operation completes — possibly
      synchronously, or after a bounded drain for handoffs that wait
      out in-flight work. *)
end

type protocol = (module S)
