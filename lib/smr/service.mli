open Domino_sim
open Domino_net

(** Per-node message-processing capacity (for the throughput study).

    WAN latency experiments can treat message handling as free, but the
    paper's Figure 13 measures peak throughput inside a LAN cluster,
    where CPU — not propagation — is the bottleneck. A [t] wraps a
    node's message handler in a single-server FIFO queue with a fixed
    service time per message, making the node a classic M/D/1 server:
    offered load beyond [1/service_time] messages/s queues up and
    latency diverges, which is exactly how a peak-throughput knee
    appears. *)

type 'msg t

val wrap :
  Engine.t ->
  service_time:Time_ns.span ->
  (src:Nodeid.t -> 'msg -> unit) ->
  'msg t

val handler : 'msg t -> src:Nodeid.t -> 'msg -> unit
(** The queued handler to register with {!Fifo_net.set_handler}. *)

val processed : 'msg t -> int

val busy_time : 'msg t -> Time_ns.span
(** Total time spent serving, for utilisation computations. *)

val queue_depth : 'msg t -> int
(** Messages currently waiting or in service. *)

(** At-most-once execution by op id.

    Client retries can legitimately drive the same operation through
    consensus more than once (each attempt wins its own instance); the
    service layer in front of the state machine must apply it exactly
    once. One [Dedup.t] guards one replica's execution stream. *)
module Dedup : sig
  type t

  val create : unit -> t

  val fresh : t -> Op.t -> bool
  (** First sighting of this op id? Callers execute iff [true]. *)

  val duplicates : t -> int
  (** Executions suppressed so far. *)
end
