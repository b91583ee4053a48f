open Domino_sim
open Domino_net
open Domino_smr

type t = {
  replicas : Nodeid.t array;
  coordinator : Nodeid.t;
  probe_interval : Time_ns.span;
  heartbeat_interval : Time_ns.span;
  window : Time_ns.span;
  percentile : float;
  additional_delay : Time_ns.span;
  every_replica_learns : bool;
  force_dfp : bool;
  adaptive : bool;
}

let make ?(probe_interval = Time_ns.ms 10) ?(heartbeat_interval = Time_ns.ms 10)
    ?(window = Time_ns.sec 1) ?(percentile = 95.) ?(additional_delay = 0)
    ?(every_replica_learns = false) ?(force_dfp = false) ?(adaptive = false)
    ?coordinator ~replicas () =
  if Array.length replicas = 0 then invalid_arg "Config.make: no replicas";
  let coordinator =
    match coordinator with Some c -> c | None -> replicas.(0)
  in
  if not (Array.exists (Nodeid.equal coordinator) replicas) then
    invalid_arg "Config.make: coordinator must be a replica";
  {
    replicas;
    coordinator;
    probe_interval;
    heartbeat_interval;
    window;
    percentile;
    additional_delay;
    every_replica_learns;
    force_dfp;
    adaptive;
  }

let n t = Array.length t.replicas

let f t = Quorum.f_of_n (n t)

let majority t = Quorum.majority (n t)

let supermajority t = Quorum.supermajority (n t)

let replica_index t node =
  let count = n t in
  let rec search i =
    if i >= count then invalid_arg "Config.replica_index: not a replica"
    else if Nodeid.equal t.replicas.(i) node then i
    else search (i + 1)
  in
  search 0

let dfp_lane t = n t
