open Domino_sim

type request = { seq : int; sent_local : Time_ns.t }

type reply = {
  seq : int;
  sent_local : Time_ns.t;
  replica_local : Time_ns.t;
  replication_latency : Time_ns.span;
}

let reply_of_request (req : request) ~replica_local ~replication_latency =
  {
    seq = req.seq;
    sent_local = req.sent_local;
    replica_local;
    replication_latency;
  }
