(** Deterministic fan-out of independent tasks over OCaml 5 domains.

    The experiment pipeline runs many self-contained simulations —
    each owns its engine, RNG, network and metrics registry — so runs
    can execute on any core in any order as long as results are
    delivered in task order. [map f input] guarantees exactly that:
    workers pull task indices from a shared atomic counter and write
    results into per-task slots, and the caller reads the slots back
    in index order after joining every worker. Output is therefore
    byte-identical for any [jobs] value, including [1] (which runs
    sequentially in the calling domain and spawns nothing).

    Tasks must not share mutable state with each other or the caller;
    everything else about determinism follows from per-run isolation. *)

val physical_cores : unit -> int
(** Physical (non-SMT) cores, from [/proc/cpuinfo]'s distinct
    (physical id, core id) pairs; falls back to the logical count and
    then to [Domain.recommended_domain_count ()] when the topology is
    unreadable. Simulation runs are compute-bound, so running more jobs
    than this only adds scheduling noise. *)

val set_jobs : int -> unit
(** Set the process-wide default parallelism used when [?jobs] is not
    passed (the CLI's [--jobs] flag lands here). Raises
    [Invalid_argument] for values < 1. *)

val jobs : unit -> int
(** Current default: the last {!set_jobs} value, else
    [Domain.recommended_domain_count ()]. *)

val map : ?jobs:int -> ('a -> 'b) -> 'a array -> 'b array
(** [map ?jobs f input] applies [f] to every element, running up to
    [jobs] (default {!jobs} ()) tasks concurrently, and returns the
    results in input order. If any task raises, the exception of the
    lowest-indexed failing task is re-raised (with its backtrace)
    after all workers finish — also independent of scheduling. *)

val mapi : ?jobs:int -> (int -> 'a -> 'b) -> 'a array -> 'b array

val map_list : ?jobs:int -> ('a -> 'b) -> 'a list -> 'b list
