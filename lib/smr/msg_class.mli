(** Coarse message classification for CPU cost modelling.

    The throughput study (paper Figure 13) charges each received
    message a service time depending on what the handler does:
    - [Proposal]: a client request hitting the node that orders it —
      the expensive step (dedup, ordering, bookkeeping);
    - [Replication]: appending a replicated entry;
    - [Ack]: counting a vote/acknowledgement;
    - [Commit_notice]: recording a commit decision;
    - [Control]: probes, heartbeats, watermarks, client replies. *)

type t = Proposal | Replication | Ack | Commit_notice | Control

val to_string : t -> string
(** Stable lowercase label, used in metric and trace names. *)
