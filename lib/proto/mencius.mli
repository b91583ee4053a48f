open Domino_smr

(** Mencius: multi-leader SMR with pre-partitioned log slots.

    Slot [s] is owned by replica [s mod n]; a client sends requests to
    its (configured, usually closest) owner replica. When a replica
    sees another owner's ACCEPT for slot [s] it skips its own unused
    slots below [s] and announces the skip to everyone, letting [s]
    become executable without waiting for idle owners.

    As in the paper's evaluation, a replica only reports an operation
    committed once all earlier slots are locally decided (committed or
    skipped) — the delayed-commit effect that gives Mencius a higher
    commit latency than EPaxos in Figure 8a. Execution is in slot
    order at every replica. *)

include Protocol_intf.S
(** Named "mencius" ([Protocols.Mencius]). Its clients send to
    [env.coordinator_of client]; [env.stores] (one per replica, indexed
    like [env.replicas]) hold each replica's durable lane state. A
    [Transfer] steers the clients [from_] fronts to [to_]. *)
