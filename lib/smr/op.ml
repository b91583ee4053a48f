open Domino_net

type t = { client : Nodeid.t; seq : int; key : int; value : int64 }

type id = Nodeid.t * int

let make ~client ~seq ~key ~value = { client; seq; key; value }

let id t = (t.client, t.seq)

let compare_id (c1, s1) (c2, s2) =
  match Nodeid.compare c1 c2 with 0 -> Int.compare s1 s2 | c -> c

let conflicts a b = a.key = b.key && compare_id (id a) (id b) <> 0

let pp fmt t =
  Format.fprintf fmt "op(%a#%d k=%d)" Nodeid.pp t.client t.seq t.key

module Idord = struct
  type t = id

  let compare = compare_id
end

module Idmap = Map.Make (Idord)
module Idset = Set.Make (Idord)

module Idtbl = Domino_obs.Journal.Opid_tbl
