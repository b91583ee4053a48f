open Domino_sim
open Domino_net

type params = {
  additional_delay : Time_ns.span;
  percentile : float;
  every_replica_learns : bool;
  adaptive : bool;
  retry_timeout : Time_ns.span;
  retry_max_attempts : int;
  retry_failover_after : int;
}

let default_params =
  {
    additional_delay = 0;
    percentile = 95.;
    every_replica_learns = false;
    adaptive = false;
    retry_timeout = 0;
    retry_max_attempts = Retry.default_policy.Retry.max_attempts;
    retry_failover_after = 1;
  }

module Cluster = struct
  type env = { engine : Engine.t }
end

module Group = struct
  type env = {
    cluster : Cluster.env;
    make_net :
      'msg.
      classify:('msg -> Msg_class.t) ->
      op_of:('msg -> Op.t option) ->
      'msg Fifo_net.t;
    replicas : Nodeid.t array;
    leader : Nodeid.t;
    coordinator_of : Nodeid.t -> Nodeid.t;
    observer : Observer.t;
    stores : Domino_store.Store.t array;
    params : params;
  }
end

type env = Group.env

(* Planned-operations interface: graceful, non-crash coordination
   handoffs driven by the reconfiguration / rolling-patch
   orchestrators. [Transfer] moves coordination duties away from
   [from_] (the Multi-Paxos leader role, the Mencius coordinator lease
   for clients it fronts, Domino's DM steering) toward [to_];
   [Restore] undoes any steering installed against [node] once it is
   back. Leaderless protocols refuse (return [false]). *)
type control =
  | Transfer of { from_ : Nodeid.t; to_ : Nodeid.t }
  | Restore of { node : Nodeid.t }

module type S = sig
  type t

  val name : string
  val create : Group.env -> t
  val submit : t -> Op.t -> unit
  val committed_count : t -> int
  val fast_slow_counts : t -> (int * int) option
  val extra_stats : t -> (string * int) list
  val gauges : t -> (string * (unit -> float)) list

  val control : t -> control -> k:(unit -> unit) -> bool
  (** Ask the protocol to perform a planned operation. Returns [false]
      if unsupported (the continuation is dropped); [true] if accepted,
      in which case [k] fires exactly once when the operation completes
      — possibly synchronously, or after a drain for handoffs that wait
      out in-flight work. *)
end

type protocol = (module S)
