open Domino_smr

(* An order-insensitive content digest: the sum of one mix per binding,
   corrected whenever a key's value is replaced. *)
type t = {
  table : (int, int64) Hashtbl.t;
  mutable version : int;
  mutable digest : int;
}

let create () = { table = Hashtbl.create 64; version = 0; digest = 0 }

(* MurmurHash3's 64-bit finaliser, its constants cut to fit OCaml's
   63-bit ints. *)
let mix x =
  let x = x lxor (x lsr 33) in
  let x = x * 0x3f51afd7ed558ccd in
  let x = x lxor (x lsr 33) in
  let x = x * 0x04ceb9fe1a85ec53 in
  x lxor (x lsr 33)

(* Every bit of the value counts: the low 63 bits and the top one. *)
let binding_mix k v =
  mix
    (mix (mix k + Int64.to_int (Int64.shift_right_logical v 63))
    + Int64.to_int v)

let set t k v =
  (match Hashtbl.find t.table k with
  | old -> t.digest <- t.digest - binding_mix k old
  | exception Not_found -> ());
  Hashtbl.replace t.table k v;
  t.digest <- t.digest + binding_mix k v;
  t.version <- t.version + 1

let apply t (op : Op.t) = set t op.Op.key op.Op.value

let get t key = Hashtbl.find_opt t.table key

let size t = Hashtbl.length t.table

let version t = t.version

let export t ~keep =
  Hashtbl.fold
    (fun k v acc -> if keep k then (k, v) :: acc else acc)
    t.table []
  |> List.sort compare

let import t bindings = List.iter (fun (k, v) -> set t k v) bindings

let fingerprint t =
  (* Order-insensitive, so two replicas converge iff every key holds
     the same final value — protocols that execute commuting operations
     out of order (EPaxos) still fingerprint equal. *)
  mix (mix t.version + t.digest)
