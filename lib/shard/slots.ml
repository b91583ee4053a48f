type spec =
  | Hash of { slots : int }
  | Range of { slots : int; keys : int }

let slots = function Hash { slots } | Range { slots; _ } -> slots

let validate spec =
  let s = slots spec in
  if s <= 0 then invalid_arg "Slots: slot count must be positive";
  match spec with
  | Range { keys; _ } when keys <= 0 ->
    invalid_arg "Slots: keyspace size must be positive"
  | _ -> ()

(* SplitMix64 finalizer: a fixed, well-mixed integer hash. Written out
   rather than [Hashtbl.hash] so slot placement is a stable function of
   the key across OCaml versions — slot maps are part of the journal's
   determinism contract. *)
let mix64 k =
  let open Int64 in
  let z = add (of_int k) 0x9E3779B97F4A7C15L in
  let z = mul (logxor z (shift_right_logical z 30)) 0xBF58476D1CE4E5B9L in
  let z = mul (logxor z (shift_right_logical z 27)) 0x94D049BB133111EBL in
  logxor z (shift_right_logical z 31)

let slot_of_key spec key =
  match spec with
  | Hash { slots } ->
    Int64.to_int (Int64.rem (Int64.logand (mix64 key) Int64.max_int)
                    (Int64.of_int slots))
  | Range { slots; keys } ->
    (* Contiguous key ranges of near-equal width; out-of-range keys
       clamp to the edge slots. *)
    if key <= 0 then 0
    else if key >= keys then slots - 1
    else key * slots / keys

let assign ~slots ~groups =
  if groups <= 0 then invalid_arg "Slots.assign: groups must be positive";
  if slots < groups then
    invalid_arg "Slots.assign: fewer slots than groups";
  Array.init slots (fun s -> s mod groups)

let spread assignment ~groups =
  let counts = Array.make groups 0 in
  Array.iter
    (fun g ->
      if g < 0 || g >= groups then
        invalid_arg "Slots.spread: assignment references unknown group";
      counts.(g) <- counts.(g) + 1)
    assignment;
  counts

(* --- serialization: the fabric's journal metadata mark --- *)

let to_string = function
  | Hash { slots } -> Printf.sprintf "hash:%d" slots
  | Range { slots; keys } -> Printf.sprintf "range:%d:%d" slots keys

let of_string s =
  match String.split_on_char ':' s with
  | [ "hash"; n ] -> (
    match int_of_string_opt n with
    | Some slots when slots > 0 -> Some (Hash { slots })
    | _ -> None)
  | [ "range"; n; k ] -> (
    match (int_of_string_opt n, int_of_string_opt k) with
    | Some slots, Some keys when slots > 0 && keys > 0 ->
      Some (Range { slots; keys })
    | _ -> None)
  | _ -> None

let mark spec ~groups =
  Printf.sprintf "slots=%s groups=%d" (to_string spec) groups

let assignment_csv assignment =
  String.concat "," (Array.to_list (Array.map string_of_int assignment))

let mark_with_epochs spec ~groups ~assignment =
  (* Emitted instead of {!mark} when a run arms live migration: the
     starting epoch and explicit assignment let offline replay seed the
     exact slot map the router started from before applying the
     journaled [migrate.epoch] bumps. *)
  Printf.sprintf "%s epoch=0 assign=%s" (mark spec ~groups)
    (assignment_csv assignment)

let kv tok =
  match String.index_opt tok '=' with
  | None -> (tok, "")
  | Some i ->
    (String.sub tok 0 i, String.sub tok (i + 1) (String.length tok - i - 1))

let parse_mark label =
  (* "slots=<spec> groups=<n>[ epoch=<e> assign=<g0,g1,...>]": the mark
     Fabric writes for multi-group runs so offline analysis can
     re-derive key->group. The short form implies the canonical
     [assign]. Returns a FRESH assignment array per call, safe for the
     caller to mutate while replaying epoch bumps. *)
  match String.split_on_char ' ' label with
  | s_tok :: g_tok :: rest -> (
    match (kv s_tok, kv g_tok) with
    | ("slots", spec_s), ("groups", groups_s) -> (
      match (of_string spec_s, int_of_string_opt groups_s) with
      | Some spec, Some groups when groups > 0 && slots spec >= groups -> (
        let fields = List.map kv rest in
        let assignment =
          match List.assoc_opt "assign" fields with
          | Some csv -> (
            let parts =
              String.split_on_char ',' csv |> List.map int_of_string_opt
            in
            if List.for_all Option.is_some parts then
              let arr = Array.of_list (List.map Option.get parts) in
              if
                Array.length arr = slots spec
                && Array.for_all (fun g -> g >= 0 && g < groups) arr
              then Some arr
              else None
            else None)
          | None -> Some (assign ~slots:(slots spec) ~groups)
        in
        match assignment with
        | Some assignment -> Some (spec, groups, assignment)
        | None -> None)
      | _ -> None)
    | _ -> None)
  | _ -> None

let resolver_of_mark label =
  match parse_mark label with
  | None -> None
  | Some (spec, groups, assignment) ->
    Some
      {
        Domino_obs.Timeline.groups;
        lookup = (fun key -> assignment.(slot_of_key spec key));
        migrate =
          (fun ~slot ~to_g ->
            if
              slot >= 0
              && slot < Array.length assignment
              && to_g >= 0 && to_g < groups
            then assignment.(slot) <- to_g);
      }

let slot_resolver_of_mark label =
  match parse_mark label with
  | None -> None
  | Some (spec, _, _) -> Some (slot_of_key spec)
