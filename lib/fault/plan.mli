(** Fault plan DSL: a timed script of faults to inject into one run.

    A plan is a list of absolute-time events. The textual form is one
    event per line —

    {v
    # comments and blank lines are ignored
    at 2s crash node=0
    at 2800ms recover node=0
    at 3500ms wipe node=0
    at 3s partition a=0 b=1,2 sym until=5s
    at 3s degrade src=0 dst=1 delay=40ms loss=0.3 until=4s
    at 6s skew node=3 delta=30ms
    at 3s migrate slot=0 from=0 to=1
    at 3s transfer group=0 to=2
    at 3s reconfig group=0 replace=1 with=2
    at 3s roll group=0 dwell=500ms
    v}

    — and {!to_string} emits exactly the syntax {!parse} accepts, so
    plans round-trip and QCheck counterexamples print as ready-to-run
    plan files. Durations take [ns]/[us]/[ms]/[s] suffixes.

    Semantics (implemented by {!Inject}):
    - [crash]/[recover]: network-severance crash — in-flight messages
      to the node die, timers keep running, volatile state survives.
    - [wipe]: crash-with-amnesia — the node (crashed first if still
      up) loses its volatile state and every storage write not yet
      fsynced, then restarts after its modeled recovery span and
      rebuilds from snapshot + log replay ({!Fifo_net.wipe_restart}).
    - [partition]: stall every directed pair from group [a] to group
      [b] (and the reverse with [sym]) until [until]; stalled messages
      deliver in FIFO order at the heal, like a TCP stall.
    - [degrade]: add [delay] to the link's base one-way delay and set
      its loss rate (losses surface as RTO-sized delay spikes, Domino
      runs over TCP) until [until], then restore.
    - [skew]: step the node's local clock by [delta] (may be negative).
    - [migrate]: live slot migration — move ownership of [slot] from
      group [from] to group [to]. Not a network fault: {!Inject}
      ignores it; the shard fabric splits these events out of the plan
      (see [Plan.partition_control]) and hands them to its
      [Shard.Migrate] orchestrator. [from]/[to] are group indices.
    - [transfer]: graceful leader transfer — hand leadership (or the
      coordinator lease / DM steering, per protocol) of group [group]
      to its replica [to] (a group-local replica index) without a
      crash. Orchestrated like [migrate]: {!Inject} ignores it.
    - [reconfig]: planned membership change for group [group] —
      stop-the-world epoch bump. [add=<r>] readmits a provisioned
      replica, [remove=<r>] retires one, [replace=<r> with=<s>] does
      both under one epoch. Replica indices are group-local.
    - [roll]: rolling wipe-upgrade of group [group] under load — for
      each member in turn: transfer leadership away if held, wipe,
      wait for snapshot+log recovery, readmit, then dwell [dwell]
      before the next node ([Smr.Reconfig.roll] orchestrates). *)

open Domino_sim

type action =
  | Crash of { node : int }
  | Recover of { node : int }
  | Wipe of { node : int }
  | Partition of { a : int list; b : int list; sym : bool; until : Time_ns.t }
  | Degrade of {
      src : int;
      dst : int;
      delay : Time_ns.span;
      loss : float;
      until : Time_ns.t;
    }
  | Skew of { node : int; delta : Time_ns.span }
  | Migrate of { slot : int; from_g : int; to_g : int }
  | Transfer of { group : int; to_ : int }
  | Reconfig of { group : int; change : change }
  | Roll of { group : int; dwell : Time_ns.span }

and change = Add of int | Remove of int | Replace of { node : int; with_ : int }

type event = { at : Time_ns.t; action : action }

type t = event list

val parse : string -> (t, string) result
(** Parse the textual form; errors name the offending line. *)

val to_string : t -> string
(** One event per line, newline-terminated; round-trips through
    {!parse}. *)

val validate : n:int -> t -> (unit, string) result
(** Static sanity: node indices in [\[0, n)], heal times after their
    start, loss in [\[0, 1\]]. [migrate] events carry group indices
    (checked non-negative and distinct here; range-checked against the
    group count by the fabric). *)

val partition_control : t -> t * t
(** Split a plan into its orchestrated events ([migrate], [transfer],
    [reconfig], [roll]) and the network faults. The fabric drives the
    first list through its orchestrators ([Shard.Migrate] and
    [Smr.Reconfig], whose [roll] runs the rolling patch) and installs
    only the second with {!Inject}. *)
