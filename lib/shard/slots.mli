(** Keyspace partitioning: keys hash (or range-map) onto a fixed ring
    of slots, and slots are assigned to consensus groups — the Redis
    Cluster shape, sized so groups can later exchange slots without
    re-hashing keys.

    Everything here is pure and deterministic: the same spec maps the
    same key to the same slot in every run and on every OCaml version,
    which makes sharded journals reproducible. *)

type spec =
  | Hash of { slots : int }
      (** keys spread over [slots] by a fixed 64-bit mix — the default,
          immune to key skew in the id space *)
  | Range of { slots : int; keys : int }
      (** contiguous key ranges over a keyspace of [keys] ids — what a
          range-partitioned store (BigTable-style) would do; hot key
          ranges stay on one group *)

val slots : spec -> int

val validate : spec -> unit
(** @raise Invalid_argument on non-positive slot/keyspace counts. *)

val slot_of_key : spec -> int -> int
(** Total: out-of-range keys clamp into the edge slots under [Range]. *)

val assign : slots:int -> groups:int -> int array
(** The canonical even assignment: slot [s] belongs to group [s mod
    groups], so every group owns within one slot of the same count.
    @raise Invalid_argument when [groups <= 0] or [slots < groups]. *)

val spread : int array -> groups:int -> int array
(** Slots owned per group under an assignment; sanity surface for
    tests and rebalancing.
    @raise Invalid_argument if the assignment names an unknown group. *)

val mark : spec -> groups:int -> string
(** The fabric's journal metadata mark: [slots=<spec> groups=<n>]. *)

val mark_with_epochs : spec -> groups:int -> assignment:int array -> string
(** The migration-armed form: [slots=<spec> groups=<n> epoch=0
    assign=<g0,g1,...>] — explicit starting assignment so offline
    replay seeds the exact slot map the live router started from
    before applying the journaled [migrate.epoch] bumps. *)

val resolver_of_mark : string -> Domino_obs.Timeline.group_map option
(** A {!Domino_obs.Timeline.group_resolver}: recognises both mark forms
    and rebuilds the key→group map (canonical {!assign} for the short
    form, the explicit [assign=] list otherwise) backed by a fresh
    mutable assignment whose [migrate] re-points slots on each
    [migrate.epoch] journal event — so offline timeline replay
    attributes ops to the same groups the live router did, across
    ownership changes. *)

val slot_resolver_of_mark : string -> (int -> int) option
(** The key→slot half of the same mark, shape-compatible with
    [Fault.Checker]'s [slot_resolver] argument (the checker lives below
    this library and takes the function injected). *)
