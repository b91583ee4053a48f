open Domino_net
open Domino_smr

(** A Domino client (the client library of §5.2).

    The client probes every replica each probe interval, estimating RTT
    and arrival offset per replica (§5.4) and collecting piggybacked
    DM replication latencies (§5.6). Per request it compares the
    estimated commit latency of DFP ([D_q], the q-th smallest RTT) and
    DM ([min_r E_r + L_r]) and uses the cheaper subsystem:

    - {b DFP}: stamps the request with the q-th smallest predicted
      arrival time (plus the configured additional delay), sends it to
      every replica, and acts as learner — q matching votes commit the
      request in a single roundtrip. If the fast path fails, the
      coordinator's slow-path (or rescue-through-DM) reply resolves it.
    - {b DM}: sends the request to the chosen leader and waits for its
      reply.

    Timestamps are strictly increasing per client, so two requests from
    one client can never collide at a position. *)

type t

type retry = {
  policy : Retry.policy;
  failover_after : int;
      (** retries sent to the closest leader before rotating to the
          next replica — failover for a crashed or partitioned leader *)
}
(** Client request retry. The timer loop — timeout, doubling, abandon
    after [policy.max_attempts], counters — is the shared {!Retry};
    the client supplies only its resend rule: a timed-out request goes
    again through DM to the closest leader for the first
    [failover_after] retries, then rotates through the other replicas,
    never to a steered-away one (see {!set_steer}). *)

val create :
  net:Message.msg Fifo_net.t ->
  cfg:Config.t ->
  self:Nodeid.t ->
  observer:Observer.t ->
  ?retry:retry ->
  unit ->
  t
(** Starts the probing timer. The node's handler is installed by
    {!Domino.create}, which routes messages via {!handle}. Without
    [retry] the client is the paper's fire-and-forget client. *)

val handle : t -> src:Nodeid.t -> Message.msg -> unit

val submit : t -> Op.t -> unit

val estimator : t -> Domino_measure.Estimator.t
(** The client's live delay estimator — read-only access for the
    observability layer (estimator error vs. ground-truth OWD). *)

val dfp_submissions : t -> int
val dm_submissions : t -> int

val retries : t -> int
(** Timed-out requests re-sent by the {!Retry} loop (0 without
    [retry]). Each goes through DM by the {!retry} resend rule, emitting
    a [client_retry] phase first. *)

val abandoned : t -> int
(** Requests given up on after [retry.policy.max_attempts] attempts. *)

val commits : t -> int
(** Operations this client has learned committed. *)

val last_choice : t -> Domino_measure.Estimator.choice option
(** What the client picked for its most recent request. *)

val set_steer : t -> avoid:int option -> prefer:int option -> unit
(** DM coordinator steering for planned operations (leader transfer,
    rolling patch): while [avoid]/[prefer] (replica indices) are set,
    the client skips DFP and routes DM to [prefer] (or its closest
    replica that is not [avoid]); retries rotate around [avoid] too.
    Clear both with [None] to restore normal routing. *)

val steer_avoid : t -> int option
(** The replica index currently steered around, if any. *)

val current_extra_delay : t -> Domino_sim.Time_ns.span
(** The additional delay currently applied to DFP timestamps — the
    configured constant, or the {!Feedback} controller's value when
    [adaptive] is on. *)
