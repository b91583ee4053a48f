open Domino_sim

type t = { ts : Time_ns.t; lane : int }

let dfp_lane ~n_replicas = n_replicas

let dm ~replica ts = { ts; lane = replica }

let dfp ~n_replicas ts = { ts; lane = dfp_lane ~n_replicas }

let compare a b =
  match Int.compare a.ts b.ts with 0 -> Int.compare a.lane b.lane | c -> c

let equal a b = compare a b = 0

let pp fmt t = Format.fprintf fmt "(%a,l%d)" Time_ns.pp t.ts t.lane
