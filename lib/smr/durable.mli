(** Shared wiring between a protocol and its replicas' stable stores.

    Every protocol persists differently, but they all need the same
    scaffolding: a store per replica (from [Protocol_intf.env.stores]),
    wipe-restart hooks on the network, and — where the protocol's
    recovery state is snapshottable — a periodic snapshot timer. *)

open Domino_sim
open Domino_net

type net_maker = {
  make :
    'msg.
    classify:('msg -> Msg_class.t) ->
    op_of:('msg -> Op.t option) ->
    'msg Fifo_net.t;
}
(** A network builder for {!standalone}: the same shape as
    [Protocol_intf.Group.env.make_net], in a record so it can be passed
    as an argument. *)

val standalone :
  Engine.t ->
  replicas:Nodeid.t array ->
  observer:Observer.t ->
  net_maker ->
  Protocol_intf.env
(** A group environment for a protocol built outside the shard fabric:
    one fresh, unjournaled store per replica at default parameters,
    {!Protocol_intf.default_params}, and [replicas.(0)] as both the
    leader and every client's coordinator (a record update overrides
    either). Nothing instruments the network unless the builder does. *)

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
