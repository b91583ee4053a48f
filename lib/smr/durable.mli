(** Shared wiring between a protocol and its replicas' stable stores.

    Every protocol persists differently, but they all need the same
    scaffolding: a store per replica (from [Protocol_intf.env.stores]),
    wipe-restart hooks on the network, and — where the protocol's
    recovery state is snapshottable — a periodic snapshot timer.

    Snapshots are typed: an encoder returns the records that replace a
    log prefix, built from constructors the protocol's replay already
    handles (plus any snapshot-only ones it adds), and the index the
    prefix ends at. Replay sees one record list either way — the
    snapshot's, then the surviving suffix — so a protocol has one
    replay path. Domino and Multi-Paxos snapshot; Mencius, EPaxos and
    Fast Paxos keep their whole log. *)

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
  replay:(int -> Domino_store.Store.record list -> unit) ->
  unit
(** Install {!Fifo_net.set_wipe_hook} for every replica: at the wipe
    instant [wipe i] drops replica [i]'s volatile state, then the store
    is wiped and its modeled recovery span returned; at the restart
    instant [replay i records] rebuilds from what survived
    ({!Domino_store.Store.recover}: the snapshot's records, then the
    log suffix). *)

val auto_snapshot :
  'msg Fifo_net.t ->
  replicas:Nodeid.t array ->
  stores:Domino_store.Store.t array ->
  encode:(int -> Domino_store.Store.record list * int) ->
  unit
(** Every second, snapshot each replica's recovery state: [encode i]
    returns [(records, upto)], the records that replace replica [i]'s
    log below index [upto], and the store truncates that prefix once
    the snapshot is durable. Skipped while the node is down. [upto]
    picks the prefix: the log frontier ({!Domino_store.Store.appended})
    makes unsynced records durable with the snapshot, the disk frontier
    ({!Domino_store.Store.durable_upto}) leaves the fsync schedule as
    it is. *)
