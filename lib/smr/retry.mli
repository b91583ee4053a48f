(** Client request retry: timeout with bounded exponential backoff —
    the one retry loop every protocol's client path runs on.

    A [t] arms a timer per op; if no commit is observed within the
    timeout, the op is sent again and the timeout doubles, up to
    [policy.max_attempts] total attempts, after which the op is
    abandoned. Commits disarm the timer ({!on_commit}).

    The loop is shared; only the resend rule differs per caller, and
    it is the function installed with {!set_resend}:
    - the harness wrapper (Mencius, EPaxos, Multi-Paxos, Fast Paxos,
      and any group whose params leave the in-protocol retry unarmed)
      resends through the protocol's own submit entry point, which
      re-routes via the client's current coordinator choice;
    - Domino's client ([lib/core/client.ml]) resends through DM, to
      its closest leader first and then rotating away, never to a
      steered-away replica — the paper's DM fallback as failover path.

    Either way a retried op can land on a different replica than the
    original. Exactly-once execution under these deliberate duplicates
    is the job of the op ledger ({!Observer.Recorder}), whose per-op
    replica set the fabric uses as its at-most-once filter; the chaos
    checker verifies it. *)

open Domino_sim

type policy = {
  timeout : Time_ns.span;  (** first attempt's patience; doubles per retry *)
  max_attempts : int;  (** total attempts including the first *)
}

val default_policy : policy
(** 800 ms, 6 attempts — patient enough to span a multi-second
    partition, bounded enough to stop hammering a dead cluster. *)

type t

val create : ?policy:policy -> Engine.t -> t

val set_resend : t -> (Op.t -> attempt:int -> unit) -> unit
(** Install the send rule: it receives the op and its attempt number
    (1 for {!submit}'s first send, 2 for the first retry, ...).
    Separate from {!create} because the protocol (or client) it sends
    through is constructed after the retry loop. *)

val track : t -> Op.t -> unit
(** Start the op's retry clock without sending it — for a caller that
    makes the first send itself. Idempotent per op id: an op already
    pending does not stack timers. *)

val submit : t -> Op.t -> unit
(** Send the op as attempt 1, then {!track} it. Every call sends (a
    deliberate re-offer); the timer does not stack. *)

val on_commit : t -> Op.t -> unit
(** Disarms an op's retry timer: the caller's observer calls it on each
    commit notification. *)

val retries : t -> int
(** Re-sends performed. *)

val abandoned : t -> int
(** Ops given up on after [max_attempts]. *)

val inflight : t -> int
