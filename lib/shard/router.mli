open Domino_smr

(** The client-side shard router: one submit function per consensus
    group plus a {e versioned} slot map, the smart-client shape of
    Redis Cluster / Spanner proxies. An operation's key picks its
    slot, the slot's owning group gets the op.

    Unlike the original immutable router, the slot assignment is
    mutable under an epoch counter so [Shard.Migrate] can move a slot
    between groups live: {!freeze} parks new submits for a slot in a
    FIFO queue, {!reassign} re-points the slot and bumps the epoch,
    {!unfreeze} flushes the queue through the normal submit path (now
    to the new owner). {!note_commit} retires in-flight tracking so
    the orchestrator can {!inflight_on}-poll a drain.

    Retry and failover are composed {e underneath} the router by the
    fabric: under fault injection each group's submit already runs the
    one {!Domino_smr.Retry} loop — with the protocol's in-protocol
    resend rule when its params arm one (Domino's DM failover), the
    generic resend through the protocol's submit otherwise — so a
    crashed group leader stalls only that group's slots and the
    router's other targets keep committing. *)

type t

val create :
  spec:Slots.spec ->
  assignment:int array ->
  submits:(Op.t -> unit) array ->
  t
(** The assignment is copied: the router owns (and mutates) its own
    slot map.
    @raise Invalid_argument on an empty group list, a slot-count
    mismatch, or an assignment naming an unknown group. *)

val slot_of : t -> int -> int
(** The slot a key maps to. Pure. *)

val group_of : t -> int -> int
(** The group that owns a key {e under the current epoch}. *)

val owner_of_slot : t -> int -> int

val epoch : t -> int
(** Ownership changes applied so far (starts at 0). *)

val assignment : t -> int array
(** A copy of the current slot→group map. *)

val submit : t -> Op.t -> unit
(** Route one op to its key's owner — or queue it if the slot is
    frozen mid-migration. *)

val note_commit : t -> Op.id -> unit
(** Retire an op from in-flight tracking (idempotent); the fabric
    calls this from its commit observer. *)

val inflight_on : t -> slot:int -> int
(** Routed-but-uncommitted ops whose key maps to [slot] — the drain
    gauge a migration polls toward zero. *)

val freeze : t -> int -> unit
(** Park new submits for the slot (idempotent). *)

val frozen : t -> int -> bool

val reassign : t -> slot:int -> to_g:int -> int
(** Re-point the slot and bump the epoch; returns the new epoch. The
    caller (the migration orchestrator) journals the [migrate.epoch]
    event immediately after, so live and replayed attribution agree. *)

val unfreeze : t -> int -> int
(** Flush the slot's queue FIFO through {!submit} (routing to the
    current owner) and stop queueing; returns the number of released
    ops. *)

val freeze_group : t -> int -> int list
(** Park new submits for {e every} slot the group currently owns —
    the stop-the-world gate a membership reconfiguration needs.
    Returns the slots this call froze (slots already frozen by a
    concurrent migration are left to that migration), for the caller
    to {!unfreeze} one by one when the epoch change externalizes. *)

val inflight_on_group : t -> group:int -> int
(** Routed-but-uncommitted ops across every slot the group owns — the
    drain gauge a reconfiguration polls toward zero. *)

val hottest_slot : t -> group:int -> int
(** The slot owned by [group] with the most routed ops so far (lowest
    slot id wins ties); [-1] if the group owns no slots. What the
    auto-rebalancer migrates. *)

val routed : t -> int array
(** Ops routed per group so far. *)

val groups : t -> int
