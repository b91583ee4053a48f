open Domino_sim

type opid = int * int

type event =
  | Submit of { op : opid; node : int; key : int; at : Time_ns.t }
  | Commit of { op : opid; node : int; at : Time_ns.t }
  | Execute of { op : opid; replica : int; at : Time_ns.t }
  | Msg_sent of {
      seq : int;
      src : int;
      dst : int;
      cls : string;
      op : opid option;
      at : Time_ns.t;
    }
  | Msg_delivered of {
      seq : int;
      src : int;
      dst : int;
      cls : string;
      op : opid option;
      sent_at : Time_ns.t;
      at : Time_ns.t;
    }
  | Msg_dropped of {
      seq : int;
      src : int;
      dst : int;
      cls : string;
      reason : string;
      at : Time_ns.t;
    }
  | Timer_fired of { at : Time_ns.t }
  | Phase of {
      node : int;
      op : opid option;
      name : string;
      dur : Time_ns.span;
      at : Time_ns.t;
    }
  | Sample of { name : string; value : float; at : Time_ns.t }
  | Mark of { label : string; at : Time_ns.t }
  | Fault of { name : string; detail : string; at : Time_ns.t }
  | Store_ev of { node : int; op : string; detail : string; at : Time_ns.t }
  | Store_sync of {
      node : int;
      recs : int;
      upto : int;
      dur_us : int;
      at : Time_ns.t;
    }
  | Recovery of { node : int; stage : string; detail : string; at : Time_ns.t }
  | Migrate of {
      stage : string;
      slot : int;
      from_g : int;
      to_g : int;
      epoch : int;
      detail : string;
      at : Time_ns.t;
    }
  | Reconfig of {
      stage : string;
      group : int;
      epoch : int;
      detail : string;
      at : Time_ns.t;
    }

module Opid_tbl = Hashtbl.Make (struct
  type t = opid

  let equal (c1, s1) (c2, s2) = Int.equal c1 c2 && Int.equal s1 s2

  (* Sequence numbers are dense per client, so consecutive ids land in
     consecutive buckets; the odd multiplier keeps clients apart. *)
  let hash (c, s) = (c * 0x9E3779B1) + s
end)

type tier = Outline | Detail

let tier = function
  | Msg_sent _ | Msg_delivered _ | Timer_fired _ | Phase _ | Store_ev _
  | Fault { name = "drop"; _ } ->
    Detail
  | Submit _ | Commit _ | Execute _ | Msg_dropped _ | Store_sync _ | Sample _
  | Mark _ | Fault _ | Recovery _ | Migrate _ | Reconfig _ ->
    Outline

type t = {
  mutable ring : event array;  (** grows by doubling up to [cap] *)
  cap : int;
  mutable next : int;  (** total events ever recorded *)
  mutable taps : (event -> unit) list;  (** installation order *)
  mutable tap : (event -> unit) option;  (** [taps] as one closure *)
  mutable detail : bool;
      (** detail-tier events are recorded: the ring keeps more than one
          event, or a tap reads them *)
}

let filler = Mark { label = ""; at = Time_ns.zero }

(* The ring starts small and doubles as events arrive, so a journal
   sized for a long run costs memory only for the events it holds. *)
let initial_slots = 1024

let create ?(capacity = 1 lsl 20) () =
  if capacity < 1 then invalid_arg "Journal.create: capacity must be >= 1";
  {
    ring = Array.make (Stdlib.min capacity initial_slots) filler;
    cap = capacity;
    next = 0;
    taps = [];
    tap = None;
    detail = capacity > 1;
  }

let capacity t = t.cap

(* Taps compose into one closure, so [record] still pays a single
   option match however many are installed. *)
let add_tap ?(reads = Detail) t f =
  if reads = Detail then t.detail <- true;
  if not (List.memq f t.taps) then begin
    t.taps <- t.taps @ [ f ];
    t.tap <-
      Some
        (match t.tap with
        | None -> f
        | Some g ->
          fun ev ->
            g ev;
            f ev)
  end

let grow t =
  let n = Array.length t.ring in
  let ring = Array.make (Stdlib.min t.cap (2 * n)) filler in
  Array.blit t.ring 0 ring 0 n;
  t.ring <- ring

(* Until the ring wraps, [next] is also the slot to write; it reaches
   the ring's length exactly when the ring must grow. *)
let record t ev =
  let n = t.next in
  if n < Array.length t.ring then t.ring.(n) <- ev
  else if n < t.cap then begin
    grow t;
    t.ring.(n) <- ev
  end
  else t.ring.(n mod t.cap) <- ev;
  t.next <- n + 1;
  match t.tap with None -> () | Some f -> f ev

let recorded t = t.next

let length t = Stdlib.min t.next t.cap

let dropped t = Stdlib.max 0 (t.next - t.cap)

let iter t f =
  let start = Stdlib.max 0 (t.next - t.cap) in
  for i = start to t.next - 1 do
    f t.ring.(i mod t.cap)
  done

let to_array t =
  let n = length t in
  let start = Stdlib.max 0 (t.next - t.cap) in
  Array.init n (fun i -> t.ring.((start + i) mod t.cap))

let append dst src = iter src (record dst)

type sink = Null | Rec of t

let null = Null

let sink t = Rec t

let enabled = function Null -> false | Rec _ -> true

let detail = function Null -> false | Rec t -> t.detail

let emit sink ev =
  match sink with
  | Null -> ()
  | Rec t -> if t.detail || tier ev = Outline then record t ev

(* --- serialization --- *)

(* The renderer writes into a byte buffer of its own, sized in advance
   by [line_length]: no format strings, no intermediate strings, no
   closures per event, and no regrowth. Only [Sample]'s [%.6g] goes
   through [Printf]; samples are rare. Writes are bounds-checked, so a
   length that disagrees with [render] fails loudly. *)
type writer = { bytes : Bytes.t; mutable pos : int }

let writer size = { bytes = Bytes.create size; pos = 0 }

let mismatch () =
  invalid_arg "Journal: rendered length differs from line_length"

let[@inline] put_char w c =
  Bytes.set w.bytes w.pos c;
  w.pos <- w.pos + 1

let[@inline] put_string w s =
  let n = String.length s in
  if n > Bytes.length w.bytes - w.pos then mismatch ();
  Bytes.unsafe_blit_string s 0 w.bytes w.pos n;
  w.pos <- w.pos + n

(* [-(10^k)] at index [k]; 10^18 is the largest power of ten in a
   63-bit int. *)
let neg_pow10 =
  let a = Array.make 19 (-1) in
  for k = 1 to 18 do
    a.(k) <- 10 * a.(k - 1)
  done;
  a

(* Decimal digits of [m <= 0]. *)
let digits m =
  let d = ref 1 in
  while !d < 19 && m <= Array.unsafe_get neg_pow10 !d do
    incr d
  done;
  !d

let int_length n = if n < 0 then 1 + digits n else digits (-n)

(* "00" "01" ... "99": digits go out two at a time. *)
let pairs =
  String.init 200 (fun i ->
      Char.chr (48 + if i land 1 = 0 then i / 20 else i / 2 mod 10))

(* The bytes of [Printf "%d"]. Digits are taken from the non-positive
   side, which also covers [min_int], and written last to first. *)
let put_int w n =
  let len = int_length n in
  let b = w.bytes in
  if len > Bytes.length b - w.pos then mismatch ();
  if n < 0 then Bytes.unsafe_set b w.pos '-';
  let m = ref (if n < 0 then n else -n) and i = ref (w.pos + len - 1) in
  while !m <= -100 do
    let r = 2 * -(!m mod 100) in
    Bytes.unsafe_set b !i (String.unsafe_get pairs (r + 1));
    Bytes.unsafe_set b (!i - 1) (String.unsafe_get pairs r);
    m := !m / 100;
    i := !i - 2
  done;
  if !m <= -10 then begin
    let r = 2 * - !m in
    Bytes.unsafe_set b !i (String.unsafe_get pairs (r + 1));
    Bytes.unsafe_set b (!i - 1) (String.unsafe_get pairs r)
  end
  else Bytes.unsafe_set b !i (Char.unsafe_chr (48 - !m));
  w.pos <- w.pos + len

let put_opid w (c, s) =
  put_int w c;
  put_char w '#';
  put_int w s

let put_opt_opid w = function
  | None -> put_char w '-'
  | Some id -> put_opid w id

(* "@<at><kw>", the head of every line. *)
let[@inline] put_head w at kw =
  put_char w '@';
  put_int w at;
  put_string w kw

(* "<seq> n<src>>n<dst> cls=<cls>", after a message keyword ending in
   " seq=". *)
let put_route w seq src dst cls =
  put_int w seq;
  put_string w " n";
  put_int w src;
  put_string w ">n";
  put_int w dst;
  put_string w " cls=";
  put_string w cls

(* An optional trailing detail: " <detail>", or nothing when empty. *)
let put_detail w detail =
  if detail <> "" then begin
    put_char w ' ';
    put_string w detail
  end

let sample_value value = Printf.sprintf "%.6g" value

let render w ev =
  let str = put_string and int = put_int in
  match ev with
  | Submit { op; node; key; at } ->
    put_head w at " submit op=";
    put_opid w op;
    str w " node=";
    int w node;
    str w " key=";
    int w key
  | Commit { op; node; at } ->
    put_head w at " commit op=";
    put_opid w op;
    str w " node=";
    int w node
  | Execute { op; replica; at } ->
    put_head w at " execute op=";
    put_opid w op;
    str w " replica=";
    int w replica
  | Msg_sent { seq; src; dst; cls; op; at } ->
    put_head w at " send seq=";
    put_route w seq src dst cls;
    str w " op=";
    put_opt_opid w op
  | Msg_delivered { seq; src; dst; cls; op; sent_at; at } ->
    put_head w at " deliver seq=";
    put_route w seq src dst cls;
    str w " op=";
    put_opt_opid w op;
    str w " sent=@";
    int w sent_at
  | Msg_dropped { seq; src; dst; cls; reason; at } ->
    put_head w at " drop seq=";
    put_route w seq src dst cls;
    str w " reason=";
    str w reason
  | Timer_fired { at } -> put_head w at " timer"
  | Phase { node; op; name; dur; at } ->
    put_head w at " phase node=";
    int w node;
    str w " op=";
    put_opt_opid w op;
    str w " name=";
    str w name;
    str w " dur=";
    int w dur
  | Sample { name; value; at } ->
    put_head w at " sample ";
    str w name;
    put_char w '=';
    str w (sample_value value)
  | Mark { label; at } ->
    put_head w at " mark ";
    str w label
  | Fault { name; detail; at } ->
    put_head w at " fault.";
    str w name;
    put_char w ' ';
    str w detail
  | Store_ev { node; op; detail; at } ->
    put_head w at " store.";
    str w op;
    str w " node=";
    int w node;
    put_detail w detail
  | Store_sync { node; recs; upto; dur_us; at } ->
    put_head w at " store.sync node=";
    int w node;
    str w " recs=";
    int w recs;
    str w " upto=";
    int w upto;
    str w " dur_us=";
    int w dur_us
  | Recovery { node; stage; detail; at } ->
    put_head w at " recovery.";
    str w stage;
    str w " node=";
    int w node;
    put_detail w detail
  | Migrate { stage; slot; from_g; to_g; epoch; detail; at } ->
    put_head w at " migrate.";
    str w stage;
    str w " slot=";
    int w slot;
    str w " from=g";
    int w from_g;
    str w " to=g";
    int w to_g;
    str w " epoch=";
    int w epoch;
    put_detail w detail
  | Reconfig { stage; group; epoch; detail; at } ->
    put_head w at " reconfig.";
    str w stage;
    str w " group=";
    int w group;
    str w " epoch=";
    int w epoch;
    put_detail w detail

(* The length of the line [render] writes, so that [to_lines] allocates
   its result once, at its final size. Each case spells out the same
   literals as its [render] case. *)
let opid_length (c, s) = int_length c + 1 + int_length s

let opt_opid_length = function None -> 1 | Some id -> opid_length id

let detail_length d = if d = "" then 0 else 1 + String.length d

let route_length seq src dst cls =
  int_length seq + String.length " n" + int_length src + String.length ">n"
  + int_length dst + String.length " cls=" + String.length cls

let line_length ev =
  let str = String.length and int = int_length in
  str "@"
  +
  match ev with
  | Submit { op; node; key; at } ->
    int at + str " submit op=" + opid_length op + str " node=" + int node
    + str " key=" + int key
  | Commit { op; node; at } ->
    int at + str " commit op=" + opid_length op + str " node=" + int node
  | Execute { op; replica; at } ->
    int at + str " execute op=" + opid_length op + str " replica="
    + int replica
  | Msg_sent { seq; src; dst; cls; op; at } ->
    int at + str " send seq=" + route_length seq src dst cls + str " op="
    + opt_opid_length op
  | Msg_delivered { seq; src; dst; cls; op; sent_at; at } ->
    int at + str " deliver seq=" + route_length seq src dst cls + str " op="
    + opt_opid_length op + str " sent=@" + int sent_at
  | Msg_dropped { seq; src; dst; cls; reason; at } ->
    int at + str " drop seq=" + route_length seq src dst cls + str " reason="
    + str reason
  | Timer_fired { at } -> int at + str " timer"
  | Phase { node; op; name; dur; at } ->
    int at + str " phase node=" + int node + str " op=" + opt_opid_length op
    + str " name=" + str name + str " dur=" + int dur
  | Sample { name; value; at } ->
    int at + str " sample " + str name + str "=" + str (sample_value value)
  | Mark { label; at } -> int at + str " mark " + str label
  | Fault { name; detail; at } ->
    int at + str " fault." + str name + str " " + str detail
  | Store_ev { node; op; detail; at } ->
    int at + str " store." + str op + str " node=" + int node
    + detail_length detail
  | Store_sync { node; recs; upto; dur_us; at } ->
    int at + str " store.sync node=" + int node + str " recs=" + int recs
    + str " upto=" + int upto + str " dur_us=" + int dur_us
  | Recovery { node; stage; detail; at } ->
    int at + str " recovery." + str stage + str " node=" + int node
    + detail_length detail
  | Migrate { stage; slot; from_g; to_g; epoch; detail; at } ->
    int at + str " migrate." + str stage + str " slot=" + int slot
    + str " from=g" + int from_g + str " to=g" + int to_g + str " epoch="
    + int epoch + detail_length detail
  | Reconfig { stage; group; epoch; detail; at } ->
    int at + str " reconfig." + str stage + str " group=" + int group
    + str " epoch=" + int epoch + detail_length detail

(* The writer's bytes, once [render] has filled them exactly. *)
let filled w =
  if w.pos <> Bytes.length w.bytes then mismatch ();
  w.bytes

let pp_event buf ev =
  let w = writer (line_length ev) in
  render w ev;
  Buffer.add_bytes buf (filled w)

let add_int buf n =
  let w = writer (int_length n) in
  put_int w n;
  Buffer.add_bytes buf w.bytes

(* Sized exactly, the writer's bytes are the result: no copy. *)
let to_lines t =
  let size = ref 0 in
  iter t (fun ev -> size := !size + line_length ev + 1);
  let w = writer !size in
  iter t (fun ev ->
      render w ev;
      put_char w '\n');
  Bytes.unsafe_to_string (filled w)

(* --- parsing (the exact inverse of pp_event) --- *)

let parse_opid s =
  match String.index_opt s '#' with
  | None -> None
  | Some i -> (
    match
      ( int_of_string_opt (String.sub s 0 i),
        int_of_string_opt (String.sub s (i + 1) (String.length s - i - 1)) )
    with
    | Some c, Some q -> Some (c, q)
    | _ -> None)

let parse_opt_opid s =
  if s = "-" then Some None
  else match parse_opid s with Some id -> Some (Some id) | None -> None

let strip_prefix ~prefix s =
  let np = String.length prefix and ns = String.length s in
  if ns >= np && String.sub s 0 np = prefix then
    Some (String.sub s np (ns - np))
  else None

let field key tok = strip_prefix ~prefix:(key ^ "=") tok

let ifield key tok = Option.bind (field key tok) int_of_string_opt

let parse_pair tok =
  (* "n3>n7" *)
  try Scanf.sscanf tok "n%d>n%d%!" (fun a b -> Some (a, b))
  with Scanf.Scan_failure _ | Failure _ | End_of_file -> None

let parse_line line =
  (* [String.concat " "] is the exact inverse of [split_on_char ' '], so
     trailing free-form fields (mark labels, fault details) round-trip
     byte-for-byte even if they contain repeated spaces. *)
  let ( let* ) o f = match o with Some v -> f v | None -> None in
  let ev =
    match String.split_on_char ' ' line with
    | at_tok :: kw :: rest when String.length at_tok > 1 && at_tok.[0] = '@' ->
      let* at =
        int_of_string_opt (String.sub at_tok 1 (String.length at_tok - 1))
      in
      (match (kw, rest) with
      | "submit", [ o; n; k ] ->
        let* op = Option.bind (field "op" o) parse_opid in
        let* node = ifield "node" n in
        let* key = ifield "key" k in
        Some (Submit { op; node; key; at })
      | "commit", [ o; n ] ->
        let* op = Option.bind (field "op" o) parse_opid in
        let* node = ifield "node" n in
        Some (Commit { op; node; at })
      | "execute", [ o; r ] ->
        let* op = Option.bind (field "op" o) parse_opid in
        let* replica = ifield "replica" r in
        Some (Execute { op; replica; at })
      | "send", [ s; pair; c; o ] ->
        let* seq = ifield "seq" s in
        let* src, dst = parse_pair pair in
        let* cls = field "cls" c in
        let* op = Option.bind (field "op" o) parse_opt_opid in
        Some (Msg_sent { seq; src; dst; cls; op; at })
      | "deliver", [ s; pair; c; o; sa ] ->
        let* seq = ifield "seq" s in
        let* src, dst = parse_pair pair in
        let* cls = field "cls" c in
        let* op = Option.bind (field "op" o) parse_opt_opid in
        let* sent_at =
          Option.bind (field "sent" sa) (strip_prefix ~prefix:"@")
          |> Fun.flip Option.bind int_of_string_opt
        in
        Some (Msg_delivered { seq; src; dst; cls; op; sent_at; at })
      | "drop", [ s; pair; c; r ] ->
        let* seq = ifield "seq" s in
        let* src, dst = parse_pair pair in
        let* cls = field "cls" c in
        let* reason = field "reason" r in
        Some (Msg_dropped { seq; src; dst; cls; reason; at })
      | "timer", [] -> Some (Timer_fired { at })
      | "phase", [ n; o; nm; d ] ->
        let* node = ifield "node" n in
        let* op = Option.bind (field "op" o) parse_opt_opid in
        let* name = field "name" nm in
        let* dur = ifield "dur" d in
        Some (Phase { node; op; name; dur; at })
      | "sample", _ ->
        let raw = String.concat " " rest in
        let* i = String.rindex_opt raw '=' in
        let name = String.sub raw 0 i in
        let* value =
          float_of_string_opt
            (String.sub raw (i + 1) (String.length raw - i - 1))
        in
        Some (Sample { name; value; at })
      | "mark", _ -> Some (Mark { label = String.concat " " rest; at })
      | _, _ when strip_prefix ~prefix:"migrate." kw <> None -> (
        match (strip_prefix ~prefix:"migrate." kw, rest) with
        | Some stage, sl :: f :: t :: e :: detail ->
          let gfield key tok =
            Option.bind (field key tok) (strip_prefix ~prefix:"g")
            |> Fun.flip Option.bind int_of_string_opt
          in
          let* slot = ifield "slot" sl in
          let* from_g = gfield "from" f in
          let* to_g = gfield "to" t in
          let* epoch = ifield "epoch" e in
          Some
            (Migrate
               { stage; slot; from_g; to_g; epoch;
                 detail = String.concat " " detail; at })
        | _ -> None)
      | _, _ when strip_prefix ~prefix:"reconfig." kw <> None -> (
        match (strip_prefix ~prefix:"reconfig." kw, rest) with
        | Some stage, g :: e :: detail ->
          let* group = ifield "group" g in
          let* epoch = ifield "epoch" e in
          Some
            (Reconfig
               { stage; group; epoch; detail = String.concat " " detail; at })
        | _ -> None)
      | _, _ -> (
        match strip_prefix ~prefix:"fault." kw with
        | Some name ->
          Some (Fault { name; detail = String.concat " " rest; at })
        | None -> (
          let node_detail rest =
            match rest with
            | n :: detail ->
              let* node = ifield "node" n in
              Some (node, String.concat " " detail)
            | [] -> None
          in
          (* A sync line with any other fields stays a [Store_ev], so
             every line still re-renders to its own bytes. *)
          let sync =
            match rest with
            | [ n; r; u; d ] -> (
              match
                (ifield "node" n, ifield "recs" r, ifield "upto" u,
                 ifield "dur_us" d)
              with
              | Some node, Some recs, Some upto, Some dur_us ->
                Some (Store_sync { node; recs; upto; dur_us; at })
              | _ -> None)
            | _ -> None
          in
          match strip_prefix ~prefix:"store." kw with
          | Some "sync" when sync <> None -> sync
          | Some op ->
            let* node, detail = node_detail rest in
            Some (Store_ev { node; op; detail; at })
          | None -> (
            match strip_prefix ~prefix:"recovery." kw with
            | Some stage ->
              let* node, detail = node_detail rest in
              Some (Recovery { node; stage; detail; at })
            | None -> None))))
    | _ -> None
  in
  match ev with
  | Some ev -> Ok ev
  | None -> Error (Printf.sprintf "unparseable journal line: %S" line)

let of_lines s =
  let lines =
    String.split_on_char '\n' s |> List.filter (fun l -> l <> "")
  in
  let t = create ~capacity:(Stdlib.max 1 (List.length lines)) () in
  let rec go n = function
    | [] -> Ok t
    | l :: tl -> (
      match parse_line l with
      | Ok ev ->
        record t ev;
        go (n + 1) tl
      | Error e -> Error (Printf.sprintf "line %d: %s" n e))
  in
  go 1 lines

(* --- segmentation --- *)

let segment_label = function Mark { label; _ } -> Some label | _ -> None
