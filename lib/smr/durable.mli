(** Shared wiring between a protocol and its replicas' stable stores.

    Every protocol persists differently, but they all need the same
    scaffolding: a store per replica (the harness provides them via
    [Protocol_intf.env.stores]; direct constructors fall back to
    {!default_stores}), wipe-restart hooks on the network, and —
    where the protocol's recovery state is snapshottable — a periodic
    snapshot timer. *)

open Domino_sim
open Domino_net

val default_stores :
  'msg Fifo_net.t -> replicas:Nodeid.t array -> Domino_store.Store.t array
(** Fresh stores with default parameters and no journal, for direct
    protocol constructors outside the harness. *)

val index_of : Nodeid.t array -> Nodeid.t -> int
(** Index of a node in the replica array, [-1] if absent. *)

val install :
  'msg Fifo_net.t ->
  replicas:Nodeid.t array ->
  stores:Domino_store.Store.t array ->
  wipe:(int -> unit) ->
  replay:(int -> string option -> Domino_store.Store.record list -> unit) ->
  unit
(** Install {!Fifo_net.set_wipe_hook} for every replica: at the wipe
    instant [wipe i] drops replica [i]'s volatile state, then the store
    is wiped and its modeled recovery span returned; at the restart
    instant [replay i snapshot records] rebuilds from what survived. *)

val auto_snapshot :
  'msg Fifo_net.t ->
  replicas:Nodeid.t array ->
  stores:Domino_store.Store.t array ->
  interval:Time_ns.span ->
  encode:(int -> string) ->
  unit
(** Periodically snapshot each replica's recovery state ([encode i]) at
    the current log frontier, truncating covered records. Skipped while
    the node is down. *)
