open Domino_sim
open Domino_smr
open Domino_measure

type dfp_report = Voted_op of Op.t | Voted_noop

type msg =
  | Probe_req of Probe.request
  | Probe_rep of Probe.reply
  | Dfp_propose of { ts : Time_ns.t; op : Op.t }
  | Dfp_vote of {
      ts : Time_ns.t;
      subject : Op.t;
      report : dfp_report;
      acceptor : int;
      watermark : Time_ns.t;
    }
  | Dfp_p2a of { ts : Time_ns.t; value : Op.t option }
  | Dfp_p2b of { ts : Time_ns.t; acceptor : int }
  | Dfp_commit of { ts : Time_ns.t; value : Op.t option; seq : int }
      (** [seq] numbers the coordinator->replica decision stream
          (commits and watermarks share one counter per destination): a
          gap at the receiver proves decisions were dropped — crash or
          lossy link — and disarms the implicit no-op fill until the
          replica resyncs *)
  | Dfp_decided_watermark of {
      upto : Time_ns.t;
      seq : int;
      resync : bool;
          (** targeted reply to a [Dfp_pull]: apply unconditionally —
              every decision at or below [upto] was just (re)sent *)
      complete : bool;
          (** the resync reached the decided watermark; the replica may
              trust ordinary broadcast watermarks again *)
    }
  | Dfp_pull of { acceptor : int; from : Time_ns.t }
      (** a replica that detected a decision-stream gap asks the
          coordinator for every decided operation above [from] *)
  | Replica_heartbeat of { acceptor : int; watermark : Time_ns.t }
  | Dfp_slow_reply of { op : Op.t }
  | Dm_request of Op.t
  | Dm_accept of { leader : int; ts : Time_ns.t; op : Op.t }
  | Dm_accepted of { leader : int; ts : Time_ns.t; acceptor : int }
  | Dm_commit of { leader : int; ts : Time_ns.t; op : Op.t }
  | Dm_commit_ack of { leader : int; ts : Time_ns.t; acceptor : int }
      (** lets the leader retain a committed instance — and hold its
          lane watermark down — until every replica has learned it *)
  | Dm_watermark of { leader : int; upto : Time_ns.t }
  | Dm_reply of { op : Op.t }

let op_of = function
  | Dfp_propose { op; _ }
  | Dfp_slow_reply { op }
  | Dm_request op
  | Dm_accept { op; _ }
  | Dm_commit { op; _ }
  | Dm_reply { op } -> Some op
  | Dfp_vote { subject; _ } -> Some subject
  | Dfp_p2a { value; _ } | Dfp_commit { value; _ } -> value
  | Dfp_p2b _ | Dfp_decided_watermark _ | Dfp_pull _ | Replica_heartbeat _
  | Dm_accepted _ | Dm_commit_ack _ | Dm_watermark _ | Probe_req _
  | Probe_rep _ -> None

let classify : msg -> Domino_smr.Msg_class.t =
  let open Domino_smr.Msg_class in
  function
  | Dfp_propose _ -> Replication
  | Dfp_vote _ | Dfp_p2b _ | Dm_accepted _ | Dm_commit_ack _ -> Ack
  | Dfp_p2a _ | Dm_accept _ -> Replication
  | Dm_request _ -> Proposal
  | Dfp_commit _ | Dm_commit _ -> Commit_notice
  | Probe_req _ | Probe_rep _ | Replica_heartbeat _
  | Dfp_decided_watermark _ | Dfp_pull _ | Dm_watermark _
  | Dfp_slow_reply _ | Dm_reply _ -> Control
