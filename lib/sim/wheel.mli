(** Hierarchical timing wheel keyed by [(time, sequence)].

    The simulator's event queue ({!Engine} runs on it alone): O(1)
    amortized insert and extract for the short-horizon events that
    dominate a run (link deliveries, periodic timers), against the
    heap's O(log n). Eleven levels of 32 slots cover the entire
    [Time_ns.t] range (a level-0 slot is 1.024 us, each level 32x
    coarser), so arbitrarily long timers need no overflow structure.

    The pop order is {e exactly} {!Pheap}'s: ascending [(time, seq)]
    where [seq] is the global insertion sequence — equal-time entries
    pop in insertion order. Imminent entries are promoted into a small
    binary heap that enforces this total order; wheel slots only ever
    hold entries whose slot lies strictly beyond it.

    Fire-once entries inserted with {!add} return no handle and are
    recycled through an internal free list once popped, so steady-state
    insertion allocates nothing. {!push} returns a {!handle} for
    {!cancel} and is never recycled (a stale handle must not alias a
    reused entry). Cancellation is lazy, as in [Pheap]: cancelled
    entries are skipped at extraction, and their stored value is
    released eagerly. *)

type 'a t

type 'a handle
(** Identifies a {!push}ed entry, for cancellation. *)

val create : dummy:'a -> 'a t
(** [create ~dummy] makes an empty wheel. [dummy] is a throwaway value
    of the element type used to blank recycled and vacated cells (the
    preallocated arenas hold no options, so a placeholder is needed). *)

val length : 'a t -> int
(** Number of live (non-cancelled) entries. *)

val is_empty : 'a t -> bool

val add : 'a t -> time:Time_ns.t -> 'a -> unit
(** Insert a fire-once entry; it cannot be cancelled, and its storage
    is recycled after it pops. Entries at equal [time] pop in insertion
    order (shared with {!push}). [time] must be >= 0. *)

val push : 'a t -> time:Time_ns.t -> 'a -> 'a handle
(** As {!add}, returning a handle accepted by {!cancel}. *)

val cancel : 'a t -> 'a handle -> unit
(** Mark an entry dead; it will be skipped at extraction. Idempotent,
    and a no-op on an entry that already popped. *)

val pop : 'a t -> (Time_ns.t * 'a) option
(** Remove and return the minimum live entry, or [None] if empty. *)

val pop_due : 'a t -> limit:Time_ns.t -> (Time_ns.t * 'a) option
(** [pop] restricted to entries with [time <= limit]. A peek path: when
    the next live entry is past [limit] it is left in place, and if
    every remaining entry provably lies beyond [limit] the cursor does
    not move at all. *)

val peek_time : 'a t -> Time_ns.t option
(** Time of the minimum live entry without removing it. *)
