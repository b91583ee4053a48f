(** Post-run safety checker: replays a journal's op lifecycle events
    and asserts the histories a correct SMR system must produce.

    Checks, per journal segment (merged sweep journals are split at
    their [Mark] headers, since op ids restart across runs):

    - {b exactly-once}: no (replica, op) executes more than once —
      client retries must be deduplicated server-side;
    - {b log-prefix agreement}: for each key, every replica's execution
      sequence is a prefix of the longest replica's sequence (per key,
      not across keys: EPaxos legitimately reorders commuting ops);
    - {b write-only linearizability} (single-register WGL-style, per
      key): taking the longest replica's execution sequence as the
      witness order, no op may be ordered after an op that was
      submitted only after it had already committed. Ops with no
      observed commit impose no real-time constraint;
    - {b committed ⇒ executed}: a committed op must execute at some
      replica, modulo a 500 ms slack at the journal's tail (drain);
    - with [require_complete]: every submitted op must commit — the
      bar for minority-fault plans, where liveness must hold;
    - {b migration epoch split} (with [slot_resolver]): a live slot
      migration journals an [migrate.epoch] ownership bump; for keys of
      a migrated slot, no op submitted before the bump may execute
      after an op submitted after it — a key served by both the old
      and the new owner past the handoff is the double-owner bug.
      Replica ids alias across groups, so a key executed in both
      groups' logs also trips exactly-once/prefix-agreement; the epoch
      check localizes the failure to the handoff;
    - {b reconfig epoch split}: a membership change journals a
      [reconfig.epoch] bump; no op submitted under the old membership
      may execute after an op submitted under the new one in any
      replica's per-key sequence (per key, like the migration rule —
      leaderless protocols legitimately reorder across keys). The
      stop-the-world drain makes the boundary clean; an op straddling
      it is a reconfig that externalized early;
    - {b removed replicas execute nothing}: once a [reconfig.epoch]
      bump removes (or replaces out) a replica, any later [Execute] at
      it is a violation — the stale-config failure mode, where a
      dropped node keeps its endpoints and goes on applying ops.
      Replica ids are taken as group-local: reconfig plans drive one
      group per journal, so ids are unambiguous.

    Violations are reported per segment, in journal order of segments:
    exactly-once violations in order of the (replica, op)'s first
    execution; removed-replica executions in journal order; then, key
    by key in ascending order, prefix agreement, migration and reconfig
    epoch splits (each replica by ascending id) and real-time order
    (along the witness sequence); then committed-but-never-executed ops
    in order of their first commit; then, with [require_complete],
    never-committed ops in order of their first submit. The order is a
    function of the journal alone.

    Cost: one pass over the journal, hashing each op id into an integer
    table (no polymorphic hashing or comparison), then a sort of each
    segment's keys and replicas.

    Limits: the checker sees submit/commit times at journal
    granularity and checks writes only (the workload is blind writes),
    so it is a safety net for ordering and duplication bugs, not a
    full Jepsen-style read/write linearizability search. A journal
    that overflowed its ring is reported as unsound. *)

open Domino_obs

type report = {
  ok : bool;
  violations : string list;
  segments : int;
  submitted : int;  (** distinct ops submitted *)
  committed : int;  (** distinct ops committed *)
  executed : int;  (** executions, summed over replicas *)
  duplicate_execs : int;  (** executions beyond the first per (replica, op) *)
  recoveries : int;
      (** wipe-restart recoveries observed ([recovery.replay] events) —
          evidence the run exercised durable-state recovery at all *)
  migrations : int;
      (** slot ownership changes observed ([migrate.epoch] events) —
          evidence the run exercised live migration at all *)
  reconfigs : int;
      (** membership epoch bumps observed ([reconfig.epoch] events) —
          evidence the run exercised reconfiguration at all *)
}

val check :
  ?require_complete:bool ->
  ?slot_resolver:(string -> (int -> int) option) ->
  Journal.t ->
  report
(** [slot_resolver] recovers a key→slot map from a segment's label
    (the fabric's [slots=...] mark;
    [Domino_shard.Slots.slot_resolver_of_mark] implements it — injected
    rather than referenced because [lib/shard] depends on this
    library). Without it the migration epoch-split check is skipped. *)

val pp_report : Format.formatter -> report -> unit
