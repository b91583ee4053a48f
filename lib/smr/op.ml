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

(* Text form for Multi-Paxos snapshots: colon-separated, no spaces, so
   an op is a single token inside a space-separated snapshot line. *)
let to_wire t = Printf.sprintf "%d:%d:%d:%Ld" t.client t.seq t.key t.value

let of_wire s =
  match String.split_on_char ':' s with
  | [ c; q; k; v ] -> (
    match
      ( int_of_string_opt c,
        int_of_string_opt q,
        int_of_string_opt k,
        Int64.of_string_opt v )
    with
    | Some client, Some seq, Some key, Some value ->
      Some { client; seq; key; value }
    | _ -> None)
  | _ -> None

module Idord = struct
  type t = id

  let compare = compare_id
end

module Idmap = Map.Make (Idord)
module Idset = Set.Make (Idord)

module Idtbl = Domino_obs.Journal.Opid_tbl
