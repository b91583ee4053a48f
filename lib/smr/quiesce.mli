open Domino_sim

(** Quiescing for planned maintenance: the two waits every
    stop-the-world orchestrator shares.

    {!drain} freezes new work, polls the in-flight count until it
    reaches zero, and gives up at a deadline, unfreezing on the way
    out. {!persist} is the persist-then-act barrier: fsync one record
    on every store of a set and act when the last fsync lands.
    [Shard.Migrate] (one slot) and {!Reconfig} (a whole group) are
    built from both; Multi-Paxos's leader transfer waits with
    {!await}. *)

val deadline : Time_ns.span
(** 1.5 s: how long a drain may take before it gives up. *)

val await : Engine.t -> inflight:(unit -> int) -> (left:int -> unit) -> unit
(** Read [inflight] now, then every {!poll}, until it reads zero or
    {!deadline} has passed since the call; then call the continuation
    with the last count read ([0] when drained). *)

val drain :
  Engine.t ->
  freeze:(unit -> unit) ->
  inflight:(unit -> int) ->
  unfreeze:(unit -> int) ->
  drained:(unit -> unit) ->
  aborted:(left:int -> queued:int -> unit) ->
  unit
(** [freeze ()], then {!await}. Drained: [drained ()] runs with the
    freeze still on — the caller acts, then unfreezes. Deadline first:
    [unfreeze ()] releases the parked work (it returns how many
    submits it released, [queued]) and [aborted ~left ~queued] runs. *)

val persist :
  Domino_store.Store.t list ->
  kind:string ->
  Domino_store.Store.record ->
  (unit -> unit) ->
  unit
(** [persist stores ~kind record k] appends [record] with an fsync on each of
    the (non-empty) [stores], in list order, and calls [k] once, when
    the last fsync lands. A store wiped before its fsync lands drops
    the callback, and [k] never runs. *)
