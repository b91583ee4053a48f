(** Probe message payloads.

    A prober sends [request]s to each replica; the replica answers with
    a [reply] carrying {e its own local timestamp} — the key idea of
    §5.4: the client derives the one-way delay {e including clock skew}
    as [replica_local_time - sent_local_time], which is exactly the
    quantity needed to predict a request's arrival time in the
    replica's clock frame. The reply also piggybacks the replica's
    estimated replication latency [L_r] used to price DM (§5.6).

    Protocol message types embed these payloads; the network itself is
    payload-agnostic. *)

open Domino_sim

type request = {
  seq : int;  (** per-client probe sequence number *)
  sent_local : Time_ns.t;  (** sender's local clock at send time *)
}

type reply = {
  seq : int;
  sent_local : Time_ns.t;  (** echoed from the request *)
  replica_local : Time_ns.t;  (** replica's local clock at receipt *)
  replication_latency : Time_ns.span;
      (** the replica's current estimate of [L_r]: the time it needs to
          replicate a request to a majority (§5.6); [max_int] when the
          replica has no estimate yet *)
}

val reply_of_request :
  request -> replica_local:Time_ns.t ->
  replication_latency:Time_ns.span -> reply
