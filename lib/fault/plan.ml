open Domino_sim

type action =
  | Crash of { node : int }
  | Recover of { node : int }
  | Wipe of { node : int }
  | Partition of { a : int list; b : int list; sym : bool; until : Time_ns.t }
  | Degrade of {
      src : int;
      dst : int;
      delay : Time_ns.span;
      loss : float;
      until : Time_ns.t;
    }
  | Skew of { node : int; delta : Time_ns.span }
  | Migrate of { slot : int; from_g : int; to_g : int }
  | Transfer of { group : int; to_ : int }
  | Reconfig of { group : int; change : change }
  | Roll of { group : int; dwell : Time_ns.span }

and change = Add of int | Remove of int | Replace of { node : int; with_ : int }

type event = { at : Time_ns.t; action : action }

type t = event list

(* --- rendering ---

   [to_string] emits exactly the syntax [parse] accepts, so a plan file
   round-trips and QCheck shrinkers can print counterexamples as
   ready-to-run plan files. *)

let span_str (s : Time_ns.span) =
  if s mod Time_ns.sec 1 = 0 then Printf.sprintf "%ds" (s / Time_ns.sec 1)
  else if s mod Time_ns.ms 1 = 0 then Printf.sprintf "%dms" (s / Time_ns.ms 1)
  else if s mod Time_ns.us 1 = 0 then Printf.sprintf "%dus" (s / Time_ns.us 1)
  else Printf.sprintf "%dns" s

let nodes_str ns = String.concat "," (List.map string_of_int ns)

let action_str = function
  | Crash { node } -> Printf.sprintf "crash node=%d" node
  | Recover { node } -> Printf.sprintf "recover node=%d" node
  | Wipe { node } -> Printf.sprintf "wipe node=%d" node
  | Partition { a; b; sym; until } ->
    Printf.sprintf "partition a=%s b=%s%s until=%s" (nodes_str a) (nodes_str b)
      (if sym then " sym" else "")
      (span_str until)
  | Degrade { src; dst; delay; loss; until } ->
    Printf.sprintf "degrade src=%d dst=%d delay=%s loss=%g until=%s" src dst
      (span_str delay) loss (span_str until)
  | Skew { node; delta } ->
    Printf.sprintf "skew node=%d delta=%s" node (span_str delta)
  | Migrate { slot; from_g; to_g } ->
    Printf.sprintf "migrate slot=%d from=%d to=%d" slot from_g to_g
  | Transfer { group; to_ } -> Printf.sprintf "transfer group=%d to=%d" group to_
  | Reconfig { group; change } -> (
    match change with
    | Add node -> Printf.sprintf "reconfig group=%d add=%d" group node
    | Remove node -> Printf.sprintf "reconfig group=%d remove=%d" group node
    | Replace { node; with_ } ->
      Printf.sprintf "reconfig group=%d replace=%d with=%d" group node with_)
  | Roll { group; dwell } ->
    Printf.sprintf "roll group=%d dwell=%s" group (span_str dwell)

let event_str { at; action } =
  Printf.sprintf "at %s %s" (span_str at) (action_str action)

let to_string t = String.concat "" (List.map (fun e -> event_str e ^ "\n") t)

(* --- parsing --- *)

let parse_span s =
  let num_end =
    let n = String.length s in
    let rec go i =
      if i < n && (s.[i] = '-' || (s.[i] >= '0' && s.[i] <= '9')) then go (i + 1)
      else i
    in
    go 0
  in
  if num_end = 0 then Error (Printf.sprintf "bad duration %S" s)
  else
    match int_of_string_opt (String.sub s 0 num_end) with
    | None -> Error (Printf.sprintf "bad duration %S" s)
    | Some v -> (
      match String.sub s num_end (String.length s - num_end) with
      | "ns" -> Ok (Time_ns.ns v)
      | "us" -> Ok (Time_ns.us v)
      | "ms" -> Ok (Time_ns.ms v)
      | "s" -> Ok (Time_ns.sec v)
      | u -> Error (Printf.sprintf "bad duration unit %S in %S" u s))

let parse_int s =
  match int_of_string_opt s with
  | Some v -> Ok v
  | None -> Error (Printf.sprintf "bad integer %S" s)

let parse_nodes s =
  let parts = String.split_on_char ',' s in
  let rec go acc = function
    | [] -> Ok (List.rev acc)
    | p :: rest -> (
      match parse_int p with Ok v -> go (v :: acc) rest | Error e -> Error e)
  in
  go [] parts

let ( let* ) r f = match r with Ok v -> f v | Error e -> Error e

(* [kv] splits "key=value" fields; bare words (like [sym]) come back
   with an empty value. *)
let kv tok =
  match String.index_opt tok '=' with
  | None -> (tok, "")
  | Some i ->
    (String.sub tok 0 i, String.sub tok (i + 1) (String.length tok - i - 1))

let field fields name =
  match List.assoc_opt name fields with
  | Some v when v <> "" -> Ok v
  | _ -> Error (Printf.sprintf "missing field %s=" name)

let parse_action verb fields =
  match verb with
  | "crash" ->
    let* v = field fields "node" in
    let* node = parse_int v in
    Ok (Crash { node })
  | "recover" ->
    let* v = field fields "node" in
    let* node = parse_int v in
    Ok (Recover { node })
  | "wipe" ->
    let* v = field fields "node" in
    let* node = parse_int v in
    Ok (Wipe { node })
  | "partition" ->
    let* av = field fields "a" in
    let* a = parse_nodes av in
    let* bv = field fields "b" in
    let* b = parse_nodes bv in
    let sym = List.mem_assoc "sym" fields in
    let* uv = field fields "until" in
    let* until = parse_span uv in
    Ok (Partition { a; b; sym; until })
  | "degrade" ->
    let* sv = field fields "src" in
    let* src = parse_int sv in
    let* dv = field fields "dst" in
    let* dst = parse_int dv in
    let* delay =
      match List.assoc_opt "delay" fields with
      | Some v when v <> "" -> parse_span v
      | _ -> Ok 0
    in
    let* loss =
      match List.assoc_opt "loss" fields with
      | Some v when v <> "" -> (
        match float_of_string_opt v with
        | Some f -> Ok f
        | None -> Error (Printf.sprintf "bad loss %S" v))
      | _ -> Ok 0.
    in
    let* uv = field fields "until" in
    let* until = parse_span uv in
    Ok (Degrade { src; dst; delay; loss; until })
  | "skew" ->
    let* nv = field fields "node" in
    let* node = parse_int nv in
    let* dv = field fields "delta" in
    let* delta = parse_span dv in
    Ok (Skew { node; delta })
  | "migrate" ->
    let* sv = field fields "slot" in
    let* slot = parse_int sv in
    let* fv = field fields "from" in
    let* from_g = parse_int fv in
    let* tv = field fields "to" in
    let* to_g = parse_int tv in
    Ok (Migrate { slot; from_g; to_g })
  | "transfer" ->
    let* gv = field fields "group" in
    let* group = parse_int gv in
    let* tv = field fields "to" in
    let* to_ = parse_int tv in
    Ok (Transfer { group; to_ })
  | "reconfig" ->
    let* gv = field fields "group" in
    let* group = parse_int gv in
    let* change =
      match
        ( List.assoc_opt "add" fields,
          List.assoc_opt "remove" fields,
          List.assoc_opt "replace" fields )
      with
      | Some v, None, None ->
        let* node = parse_int v in
        Ok (Add node)
      | None, Some v, None ->
        let* node = parse_int v in
        Ok (Remove node)
      | None, None, Some v ->
        let* node = parse_int v in
        let* wv = field fields "with" in
        let* with_ = parse_int wv in
        Ok (Replace { node; with_ })
      | _ -> Error "reconfig needs exactly one of add= / remove= / replace="
    in
    Ok (Reconfig { group; change })
  | "roll" ->
    let* gv = field fields "group" in
    let* group = parse_int gv in
    let* dv = field fields "dwell" in
    let* dwell = parse_span dv in
    Ok (Roll { group; dwell })
  | v -> Error (Printf.sprintf "unknown fault verb %S" v)

let parse_line line =
  match
    String.split_on_char ' ' (String.trim line)
    |> List.filter (fun s -> s <> "")
  with
  | [] -> Ok None
  | tok :: _ when String.length tok > 0 && tok.[0] = '#' -> Ok None
  | "at" :: at_s :: verb :: rest ->
    let* at = parse_span at_s in
    let fields = List.map kv rest in
    let* action = parse_action verb fields in
    Ok (Some { at; action })
  | _ -> Error "expected: at <time> <verb> k=v ..."

let parse s =
  let lines = String.split_on_char '\n' s in
  let rec go acc lineno = function
    | [] -> Ok (List.rev acc)
    | line :: rest -> (
      match parse_line line with
      | Ok None -> go acc (lineno + 1) rest
      | Ok (Some ev) -> go (ev :: acc) (lineno + 1) rest
      | Error e -> Error (Printf.sprintf "line %d: %s" lineno e))
  in
  go [] 1 lines

(* --- validation --- *)

let validate ~n t =
  let errs = ref [] in
  let err fmt = Printf.ksprintf (fun s -> errs := s :: !errs) fmt in
  let check_node what node =
    if node < 0 || node >= n then err "%s: node %d out of range [0,%d)" what node n
  in
  List.iter
    (fun { at; action } ->
      if at < 0 then err "event at %s: negative time" (span_str at);
      match action with
      | Crash { node } -> check_node "crash" node
      | Recover { node } -> check_node "recover" node
      | Wipe { node } -> check_node "wipe" node
      | Partition { a; b; sym = _; until } ->
        List.iter (check_node "partition") a;
        List.iter (check_node "partition") b;
        if until <= at then
          err "partition at %s: until=%s not after start" (span_str at)
            (span_str until)
      | Degrade { src; dst; delay; loss; until } ->
        check_node "degrade" src;
        check_node "degrade" dst;
        if src = dst then err "degrade: src = dst = %d" src;
        if delay < 0 then err "degrade: negative delay";
        if loss < 0. || loss > 1. then err "degrade: loss %g outside [0,1]" loss;
        if until <= at then
          err "degrade at %s: until=%s not after start" (span_str at)
            (span_str until)
      | Skew { node; delta = _ } -> check_node "skew" node
      | Migrate { slot; from_g; to_g } ->
        (* from/to are GROUP indices, not node ids: the fabric checks
           them against its group count; here only static shape. *)
        if slot < 0 then err "migrate: slot %d negative" slot;
        if from_g < 0 then err "migrate: from %d negative" from_g;
        if to_g < 0 then err "migrate: to %d negative" to_g;
        if from_g = to_g then err "migrate: from = to = %d" from_g
      | Transfer { group; to_ } ->
        (* group is a GROUP index, to a group-local replica index; both
           range-checked against the layout by the fabric. *)
        if group < 0 then err "transfer: group %d negative" group;
        if to_ < 0 then err "transfer: to %d negative" to_
      | Reconfig { group; change } -> (
        if group < 0 then err "reconfig: group %d negative" group;
        match change with
        | Add node | Remove node ->
          if node < 0 then err "reconfig: node %d negative" node
        | Replace { node; with_ } ->
          if node < 0 then err "reconfig: node %d negative" node;
          if with_ < 0 then err "reconfig: with %d negative" with_;
          if node = with_ then err "reconfig: replace %d with itself" node)
      | Roll { group; dwell } ->
        if group < 0 then err "roll: group %d negative" group;
        if dwell < 0 then err "roll: negative dwell")
    t;
  match !errs with [] -> Ok () | es -> Error (String.concat "; " (List.rev es))

let is_orchestrated = function
  | { action = Migrate _ | Transfer _ | Reconfig _ | Roll _; _ } -> true
  | _ -> false

let partition_control t = List.partition is_orchestrated t
