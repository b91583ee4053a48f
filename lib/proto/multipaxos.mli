open Domino_smr

(** Multi-Paxos with a stable leader (steady state, no view changes).

    Clients send requests to the fixed leader; the leader assigns
    consecutive log slots and replicates with a single accept round to
    a majority (counting itself). Committed slots are broadcast and
    every replica executes in slot order. A client therefore pays
    client→leader→majority→leader→client: the two WAN roundtrips the
    paper's introduction attributes to leader-based SMR. *)

include Protocol_intf.S
(** Named "multipaxos" ([Protocols.Multi_paxos]). [env.leader] is the
    leader; [env.stores] (one per replica, indexed like [env.replicas])
    hold the durable log. A [Transfer] away from the leader is a
    graceful handoff: stop opening slots, drain the open-slot table
    (bounded by a 1.5 s deadline), flip the leader to [to_], and
    re-drive requests parked during the drain; [k] fires once the new
    leader is serving. *)
