(** Array-based binary min-heap keyed by [(time, sequence)].

    The reference queue the simulator's {!Wheel} is checked against
    (property tests and queue-level benchmarks); the engine itself runs
    on the wheel. Ties on time are broken by an insertion sequence
    number so that the execution order of simultaneous events is
    deterministic (insertion order). Cancelled events are removed
    lazily, but the heap compacts itself whenever dead entries
    outnumber live ones, so cancellation-heavy workloads stay bounded
    by the live event count. *)

open Domino_sim

type 'a t

val create : unit -> 'a t

val length : 'a t -> int
(** Number of live (non-cancelled) entries. *)

val is_empty : 'a t -> bool

val heap_size : 'a t -> int
(** Physical entries held (live + not-yet-reclaimed dead); exposed so
    tests can observe lazy deletion and compaction. *)

type 'a handle
(** Identifies an inserted entry, for cancellation. *)

val push : 'a t -> time:Time_ns.t -> 'a -> 'a handle
(** Insert an entry. Entries pushed at equal [time] pop in push order. *)

val cancel : 'a t -> 'a handle -> unit
(** Mark an entry dead; it will be skipped on pop. Idempotent, and a
    no-op on an entry that already popped. *)

val pop : 'a t -> (Time_ns.t * 'a) option
(** Remove and return the minimum live entry, or [None] if empty. *)

val pop_due : 'a t -> limit:Time_ns.t -> (Time_ns.t * 'a) option
(** [pop] restricted to entries with [time <= limit]; a single pass
    over the dead prefix serves both the deadline check and the pop. *)

val peek_time : 'a t -> Time_ns.t option
(** Time of the minimum live entry without removing it. *)
