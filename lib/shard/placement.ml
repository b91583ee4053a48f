open Domino_net

let closest_replicas topo ~replica_dcs ~client_dcs =
  let ris = Array.map (Topology.index topo) replica_dcs in
  Array.map
    (fun client_dc ->
      let ci = Topology.index topo client_dc in
      let best = ref 0 and best_rtt = ref infinity in
      for idx = 0 to Array.length ris - 1 do
        let rtt = Topology.rtt_ms topo ci ris.(idx) in
        if rtt < !best_rtt then begin
          best := idx;
          best_rtt := rtt
        end
      done;
      !best)
    client_dcs

let closest_replica topo ~replica_dcs ~client_dc =
  (closest_replicas topo ~replica_dcs ~client_dcs:[| client_dc |]).(0)

(* Total client RTT cost of placing the leader/coordinator at each
   replica. Ties break to the lower replica index, so ranking is
   deterministic. *)
let rank topo ~replica_dcs ~client_dcs =
  let cost r_dc =
    let ri = Topology.index topo r_dc in
    Array.fold_left
      (fun acc c_dc ->
        acc +. Topology.rtt_ms topo (Topology.index topo c_dc) ri)
      0. client_dcs
  in
  let costs = Array.map cost replica_dcs in
  let order = Array.init (Array.length replica_dcs) Fun.id in
  Array.sort
    (fun a b ->
      match compare costs.(a) costs.(b) with 0 -> compare a b | c -> c)
    order;
  order

let best_leader topo ~replica_dcs ~client_dcs =
  (rank topo ~replica_dcs ~client_dcs).(0)

let spread_leaders topo ~replica_dcs ~client_dcs ~groups =
  if groups <= 0 then invalid_arg "Placement.spread_leaders: groups <= 0";
  let order = rank topo ~replica_dcs ~client_dcs in
  Array.init groups (fun g -> order.(g mod Array.length order))
