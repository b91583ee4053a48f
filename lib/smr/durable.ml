open Domino_sim
open Domino_net
module Store = Domino_store.Store

type net_maker = {
  make :
    'msg.
    classify:('msg -> Msg_class.t) ->
    op_of:('msg -> Op.t option) ->
    'msg Fifo_net.t;
}

let standalone engine ~replicas ~observer net =
  {
    Protocol_intf.Group.cluster = { Protocol_intf.Cluster.engine };
    make_net = (fun ~classify ~op_of -> net.make ~classify ~op_of);
    replicas;
    leader = replicas.(0);
    coordinator_of = (fun _ -> replicas.(0));
    observer;
    stores =
      Array.map
        (fun r ->
          Store.create engine ~node:r ~params:Store.default_params
            ~journal:Domino_obs.Journal.null)
        replicas;
    params = Protocol_intf.default_params;
  }

let index_of replicas node =
  let idx = ref (-1) in
  Array.iteri (fun i r -> if Nodeid.equal r node then idx := i) replicas;
  !idx

let install net ~replicas ~stores ~wipe ~replay =
  Array.iteri
    (fun i r ->
      Fifo_net.set_wipe_hook net r
        ~wipe:(fun () ->
          wipe i;
          Store.wipe stores.(i);
          Store.recovery_span stores.(i))
        ~replay:(fun () ->
          replay i (Store.recover stores.(i))))
    replicas

let snapshot_interval = Time_ns.sec 1

let auto_snapshot net ~replicas ~stores ~encode =
  Array.iteri
    (fun i r ->
      ignore
        (Engine.every (Fifo_net.engine net) ~interval:snapshot_interval
           (fun () ->
             if Fifo_net.is_up net r then
               let records, upto = encode i in
               Store.snapshot stores.(i) records ~upto)))
    replicas
