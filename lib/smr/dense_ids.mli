(** An exact set of operation ids, stored as a per-client low-water
    mark plus a sparse table above it.

    Clients number their operations densely from 0 ({!Op.t}'s [seq]),
    so the ids a single-group run collects — every op a client has seen
    committed — fill each client's seqs from the bottom: the mark
    absorbs them, and the set costs about one int per client instead of
    one table entry per op. Ids above a client's first gap wait in the
    table until the gap fills. Where the seqs a set receives keep gaps
    (a group of a multi-group run sees only the seqs routed to it; the
    DFP coordinator sees only the ops clients sent through DFP), the
    mark stays low and the set is the table it replaces, at no extra
    cost. *)

type t

val create : unit -> t

val add : t -> Op.id -> unit

val mem : t -> Op.id -> bool

val clear : t -> unit

val elements : t -> Op.id list
(** Every member, in {!Op.compare_id} order. *)
