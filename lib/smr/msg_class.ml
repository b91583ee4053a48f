type t = Proposal | Replication | Ack | Commit_notice | Control

let to_string = function
  | Proposal -> "proposal"
  | Replication -> "replication"
  | Ack -> "ack"
  | Commit_notice -> "commit"
  | Control -> "control"
