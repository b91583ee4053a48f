open Domino_net

(** Per-group leader/coordinator placement from client geography.

    A group's leader (Multi-Paxos) or coordinator (Fast Paxos, DFP)
    sits on every commit's critical path, so its position against the
    client population dominates the group's latency. These helpers
    rank a group's replicas by total client RTT and either pick the
    best one or rotate the leadership of successive groups across the
    best replicas, so a many-group fabric doesn't pile every group's
    coordination load onto one datacenter. All deterministic: ties
    break to the lower replica index. *)

val closest_replica :
  Topology.t -> replica_dcs:string array -> client_dc:string -> int
(** Index of the replica with the lowest RTT to the client's
    datacenter — the per-client entry point (Mencius, EPaxos) and
    execution-latency measurement site. *)

val closest_replicas :
  Topology.t -> replica_dcs:string array -> client_dcs:string array ->
  int array
(** {!closest_replica} for each of [client_dcs], resolving the replica
    datacenters once. *)

val best_leader :
  Topology.t -> replica_dcs:string array -> client_dcs:string array -> int
(** The cheapest entry of {!rank}. *)

val spread_leaders :
  Topology.t ->
  replica_dcs:string array ->
  client_dcs:string array ->
  groups:int ->
  int array
(** Group [k]'s leader: the [(k mod n_replicas)]-th cheapest replica —
    latency-aware but load-spreading. *)
