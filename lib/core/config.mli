open Domino_sim
open Domino_net

(** Domino deployment configuration.

    Defaults mirror the paper's experimental settings (§7.1): 10 ms
    probing and heartbeat intervals, a 1 s measurement window, the 95th
    percentile delay estimate, and no additional delay on DFP request
    timestamps.

    Client request retry is not part of the deployment config: it is
    the shared {!Domino_smr.Retry} loop with Domino's DM resend rule,
    armed per client through {!Domino.create}'s [?retry]
    ({!Client.retry}). *)

type t = {
  replicas : Nodeid.t array;
  coordinator : Nodeid.t;  (** the DFP coordinator (one of [replicas]) *)
  probe_interval : Time_ns.span;
  heartbeat_interval : Time_ns.span;
  window : Time_ns.span;
  percentile : float;
  additional_delay : Time_ns.span;
      (** added to DFP request timestamps to absorb mispredictions
          (§5.4); Figures 9 and 11 sweep this *)
  every_replica_learns : bool;
      (** §5.7 optimisation: acceptors send votes to all replicas, which
          then learn DFP fast-path commits without waiting for the
          coordinator's notification *)
  force_dfp : bool;
      (** benchmarking knob: clients always use DFP (when they have
          measurements), disabling the DFP/DM choice — used by the
          throughput study to pin the message pattern *)
  adaptive : bool;
      (** enable the {!Feedback} controller (the paper's §5.4 future
          work): clients monitor their DFP fast-path success rate,
          adaptively raise their additional delay when mispredictions
          cluster, and fall back to DM while the fast path is broken *)
}

val make :
  ?probe_interval:Time_ns.span ->
  ?heartbeat_interval:Time_ns.span ->
  ?window:Time_ns.span ->
  ?percentile:float ->
  ?additional_delay:Time_ns.span ->
  ?every_replica_learns:bool ->
  ?force_dfp:bool ->
  ?adaptive:bool ->
  ?coordinator:Nodeid.t ->
  replicas:Nodeid.t array ->
  unit ->
  t
(** [coordinator] defaults to the first replica. *)

val n : t -> int
val f : t -> int
val majority : t -> int
val supermajority : t -> int

val replica_index : t -> Nodeid.t -> int
(** @raise Invalid_argument if the node is not a replica. *)

val dfp_lane : t -> int
(** Lane index of DFP in the interleaved log (= n). *)
