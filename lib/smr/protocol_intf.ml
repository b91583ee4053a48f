open Domino_sim
open Domino_net
open Domino_obs

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
  type env = {
    engine : Engine.t;
    topo : Topology.t;
    metrics : Metrics.t;
    journal : Journal.sink;
  }
end

module Group = struct
  type env = {
    cluster : Cluster.env;
    prefix : string;
    make_net : 'msg. unit -> 'msg Fifo_net.t;
    replicas : Nodeid.t array;
    leader : Nodeid.t;
    coordinator_of : Nodeid.t -> Nodeid.t;
    observer : Observer.t;
    stores : Domino_store.Store.t array;
    params : params;
  }

  let metrics g = g.cluster.Cluster.metrics
  let journal g = g.cluster.Cluster.journal
  let qualify g name = g.prefix ^ name
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

let instrument (type msg) (env : Group.env) ~name
    ~(classify : msg -> Msg_class.t) ~(op_of : msg -> Op.t option)
    (net : msg Fifo_net.t) =
  (* Metric keys carry the group prefix, so two groups running the
     same protocol on one cluster count into distinct instruments
     ([g0.domino.msg.*] vs [g1.domino.msg.*]); a single-group run has
     the empty prefix and keeps the historical [domino.msg.*] keys. *)
  let name = Group.qualify env name in
  let metrics = Group.metrics env in
  let counter suffix cls =
    Metrics.counter metrics
      (Printf.sprintf "%s.msg.%s.%s" name (Msg_class.to_string cls) suffix)
  in
  (* Create one counter per (class, direction) up front so the hot path is
     a constant-time variant dispatch, and so every class shows up in
     the emitted JSON even at count 0. *)
  let pick suffix =
    let get = counter suffix in
    let p = get Msg_class.Proposal
    and r = get Msg_class.Replication
    and a = get Msg_class.Ack
    and c = get Msg_class.Commit_notice
    and k = get Msg_class.Control in
    fun (cls : Msg_class.t) ->
      match cls with
      | Proposal -> p
      | Replication -> r
      | Ack -> a
      | Commit_notice -> c
      | Control -> k
  in
  let sent = pick "sent"
  and delivered = pick "delivered"
  and dropped = pick "dropped" in
  let journal = Group.journal env in
  (* The journal sink is fixed at construction (Null vs Rec), so the
     enabled test hoists out of the per-message hooks entirely: a
     sinkless run pays one counter bump per event and nothing else.
     Sends and deliveries are detail-tier events: a journal that keeps
     only the outline (a timeline-only run) never has them built. *)
  let journal_on = Journal.enabled journal in
  Fifo_net.set_message_hooks net
    ~sent:(fun ~seq ~src ~dst msg ~at ->
      let cls = classify msg in
      Metrics.inc (sent cls);
      if Journal.detail journal then
        Journal.emit journal
          (Journal.Msg_sent
             { seq; src; dst; cls = Msg_class.to_string cls;
               op = Option.map Op.id (op_of msg); at }))
    ~delivered:(fun ~seq ~src ~dst msg ~sent_at ~at ->
      let cls = classify msg in
      Metrics.inc (delivered cls);
      if Journal.detail journal then
        Journal.emit journal
          (Journal.Msg_delivered
             { seq; src; dst; cls = Msg_class.to_string cls;
               op = Option.map Op.id (op_of msg); sent_at; at }))
    ~dropped:(fun ~seq ~src ~dst msg ~reason ~at ->
      let cls = classify msg in
      Metrics.inc (dropped cls);
      if journal_on then
        Journal.emit journal
          (Journal.Msg_dropped
             { seq; src; dst; cls = Msg_class.to_string cls;
               reason = Fifo_net.drop_reason_string reason; at }))
