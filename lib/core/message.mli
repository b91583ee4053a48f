open Domino_sim
open Domino_smr
open Domino_measure

(** Domino's wire protocol.

    One message type covers both subsystems plus measurement traffic.
    DFP votes and replica heartbeats to the coordinator share a FIFO
    channel, which is what makes the piggybacked watermark [T] sound:
    when the coordinator processes a heartbeat carrying [T], it has
    already received every vote that replica cast for positions below
    [T] (§5.3.2). *)

type dfp_report =
  | Voted_op of Op.t  (** round-0 accept of this operation *)
  | Voted_noop  (** position had expired (or was occupied by a no-op) *)

type msg =
  | Probe_req of Probe.request
  | Probe_rep of Probe.reply
  (* --- DFP --- *)
  | Dfp_propose of { ts : Time_ns.t; op : Op.t }
      (** client -> every replica *)
  | Dfp_vote of {
      ts : Time_ns.t;
      subject : Op.t;  (** the proposal this vote answers *)
      report : dfp_report;
      acceptor : int;  (** replica index *)
      watermark : Time_ns.t;  (** acceptor's no-op fill time T *)
    }  (** acceptor -> coordinator + submitting client (+ all replicas
           when [every_replica_learns]) *)
  | Dfp_p2a of { ts : Time_ns.t; value : Op.t option }
      (** coordinated recovery, round 1 *)
  | Dfp_p2b of { ts : Time_ns.t; acceptor : int }
  | Dfp_commit of { ts : Time_ns.t; value : Op.t option; seq : int }
      (** coordinator -> replicas. [seq] numbers the per-destination
          decision stream (commits and watermarks share one counter): a
          gap at the receiver proves decisions were dropped — crash,
          lossy link — and disarms the implicit no-op fill until a
          resync completes *)
  | Dfp_decided_watermark of {
      upto : Time_ns.t;
      seq : int;
      resync : bool;
      complete : bool;
    }
      (** coordinator -> replicas: every DFP position <= [upto] is
          decided (no-op unless an explicit commit was sent earlier on
          this channel). The no-op blanket is only sound over a lossless
          stream, so a replica that saw a [seq] gap ignores ordinary
          watermarks ([resync = false]) and pulls missed decisions
          instead. A [resync = true] watermark answers a [Dfp_pull]: the
          coordinator just re-sent every decided operation at or below
          [upto] that the replica lacked, so it applies unconditionally;
          [complete] grants renewed trust in ordinary watermarks (the
          resync reached the decided watermark, and the reply arrived
          gap-free) *)
  | Dfp_pull of { acceptor : int; from : Time_ns.t }
      (** replica -> coordinator: the decision stream gapped; re-send
          every decided operation above [from] (the replica's sound
          coverage frontier), then a [resync] watermark *)
  | Replica_heartbeat of { acceptor : int; watermark : Time_ns.t }
      (** replica -> coordinator, every heartbeat interval *)
  | Dfp_slow_reply of { op : Op.t }  (** coordinator -> client *)
  (* --- DM --- *)
  | Dm_request of Op.t  (** client -> chosen DM leader *)
  | Dm_accept of { leader : int; ts : Time_ns.t; op : Op.t }
  | Dm_accepted of { leader : int; ts : Time_ns.t; acceptor : int }
  | Dm_commit of { leader : int; ts : Time_ns.t; op : Op.t }
  | Dm_commit_ack of { leader : int; ts : Time_ns.t; acceptor : int }
      (** replica -> leader: commit applied; the leader retains the
          instance (holding its lane watermark down, and re-sending the
          commit to laggards) until every replica has acked *)
  | Dm_watermark of { leader : int; upto : Time_ns.t }
      (** leader -> all: its lane's no-op fill time *)
  | Dm_reply of { op : Op.t }  (** leader -> client *)

val classify : msg -> Domino_smr.Msg_class.t
(** Cost class of a message, for the Figure 13 throughput model. *)

val op_of : msg -> Op.t option
(** The operation a message carries (a DFP vote's [subject]), if any —
    per-op trace attribution. *)
