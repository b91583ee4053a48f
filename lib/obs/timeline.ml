open Domino_sim
module Summary = Domino_stats.Summary
module Json = Domino_stats.Json
module Tablefmt = Domino_stats.Tablefmt

let default_window = Time_ns.ms 100

(* --- windowed cadence driver --- *)

module Clock = struct
  type t = {
    window : Time_ns.span;
    mutable cbs : (index:int -> now:Time_ns.t -> unit) list;
        (** registration order *)
    mutable fired : int;
  }

  let create engine ~window =
    if window <= 0 then invalid_arg "Timeline.Clock.create: window must be > 0";
    let t = { window; cbs = []; fired = 0 } in
    ignore
      (Engine.every engine ~interval:window (fun () ->
           let index = t.fired in
           t.fired <- t.fired + 1;
           let now = Engine.now engine in
           List.iter (fun f -> f ~index ~now) t.cbs));
    t

  let window t = t.window

  let on_window t f = t.cbs <- t.cbs @ [ f ]

  let fired t = t.fired
end

(* --- data model --- *)

type point = {
  index : int;
  submits : int;
  commits : int;
  executes : int;
  drops : int;
  sync_writes : int;
  inflight : int;
  p50_ms : float;
  p99_ms : float;
}

type gauge_point = { g_index : int; mean : float; last : float }

type segment = {
  label : string;
  window : Time_ns.span;
  cluster : point array;
  groups : (int * point array) array;
  nodes : (int * point array) array;
  gauges : (string * gauge_point array) array;
  faults : (Time_ns.t * string * string) array;
  recoveries : (Time_ns.t * int * string) array;
}

type t = segment list

let rps ~window pt = float_of_int pt.commits *. 1e9 /. float_of_int window

let window_start_ms ~window i =
  float_of_int i *. (float_of_int window /. 1e6)

(* --- per-scope series accumulation --- *)

type series = {
  mutable pts : point list;  (** closed windows, newest first *)
  mutable idx : int;  (** currently open window *)
  mutable s : int;
  mutable c : int;
  mutable e : int;
  mutable d : int;
  mutable sy : int;
  mutable lat : float list;  (** commit latencies (ms) this window *)
  mutable cum_s : int;
  mutable cum_c : int;
}

let series () =
  {
    pts = [];
    idx = 0;
    s = 0;
    c = 0;
    e = 0;
    d = 0;
    sy = 0;
    lat = [];
    cum_s = 0;
    cum_c = 0;
  }

let close sr =
  let p50, p99 =
    match sr.lat with
    | [] -> (nan, nan)
    | lat ->
      let sm = Summary.create () in
      Summary.add_list sm lat;
      (Summary.percentile sm 50., Summary.percentile sm 99.)
  in
  sr.pts <-
    {
      index = sr.idx;
      submits = sr.s;
      commits = sr.c;
      executes = sr.e;
      drops = sr.d;
      sync_writes = sr.sy;
      (* Clamped: a commit whose submit predates the journal (ring
         truncation) bumps [cum_c] with no matching [cum_s]. *)
      inflight = Stdlib.max 0 (sr.cum_s - sr.cum_c);
      p50_ms = p50;
      p99_ms = p99;
    }
    :: sr.pts;
  sr.idx <- sr.idx + 1;
  sr.s <- 0;
  sr.c <- 0;
  sr.e <- 0;
  sr.d <- 0;
  sr.sy <- 0;
  sr.lat <- []

(* Journals are time-ordered within a segment, so [advance] only ever
   moves forward; a same-window event is a no-op. *)
let advance sr k = while sr.idx < k do close sr done

let collect sr ~upto =
  advance sr (upto + 1);
  Array.of_list (List.rev sr.pts)

type gseries = {
  mutable gpts : gauge_point list;  (** newest first *)
  mutable gidx : int;
  mutable gsum : float;
  mutable gcnt : int;
  mutable glast : float;
}

let gclose gs =
  if gs.gcnt > 0 then
    gs.gpts <-
      { g_index = gs.gidx; mean = gs.gsum /. float_of_int gs.gcnt;
        last = gs.glast }
      :: gs.gpts;
  gs.gidx <- gs.gidx + 1;
  gs.gsum <- 0.;
  gs.gcnt <- 0

let gadvance gs k = while gs.gidx < k do gclose gs done

(* --- streaming collector --- *)

type group_map = {
  groups : int;
  lookup : int -> int;  (** key -> group, under the CURRENT epoch *)
  migrate : slot:int -> to_g:int -> unit;
      (** applied on each [migrate.epoch] event so offline replay tracks
          ownership changes exactly as the live router did *)
}

type group_resolver = string -> group_map option

type opinfo = {
  submitted_at : Time_ns.t;
  group : int;  (** -1 when unattributed *)
  mutable committed : bool;
}

(* Node and group ids are small ints: hash them as themselves. *)
module Itbl = Hashtbl.Make (struct
  type t = int

  let equal = Int.equal
  let hash n = n land max_int
end)

type seg_state = {
  mutable slabel : string;
  cluster_s : series;
  groups_t : series Itbl.t;
  nodes_t : series Itbl.t;
  gauges_t : (string, gseries) Hashtbl.t;
  mutable faults_r : (Time_ns.t * string * string) list;
  mutable recoveries_r : (Time_ns.t * int * string) list;
  ops : opinfo Journal.Opid_tbl.t;
  mutable gmap : group_map option;
  mutable max_idx : int;  (** last window touched by a counted event *)
  mutable counted : int;
}

type agg = {
  win : Time_ns.span;
  resolver : group_resolver option;
  mutable seg : seg_state;
  mutable closed : segment list;  (** newest first *)
  mutable finished : bool;
  mutable tap : (Journal.event -> unit) option;  (** [feed] this agg *)
}

let fresh_seg label =
  {
    slabel = label;
    cluster_s = series ();
    groups_t = Itbl.create 8;
    nodes_t = Itbl.create 16;
    gauges_t = Hashtbl.create 16;
    faults_r = [];
    recoveries_r = [];
    ops = Journal.Opid_tbl.create 1024;
    gmap = None;
    max_idx = -1;
    counted = 0;
  }

let create ?(window = default_window) ?group_resolver () =
  if window <= 0 then invalid_arg "Timeline.create: window must be > 0";
  {
    win = window;
    resolver = group_resolver;
    seg = fresh_seg "";
    closed = [];
    finished = false;
    tap = None;
  }

let window agg = agg.win

let apply_map seg gm =
  (* Only multi-group runs carry a group axis; pre-create every group's
     series so a group with no traffic still renders (all-zero). *)
  if gm.groups > 1 then begin
    seg.gmap <- Some gm;
    for g = 0 to gm.groups - 1 do
      if not (Itbl.mem seg.groups_t g) then
        Itbl.replace seg.groups_t g (series ())
    done
  end

let set_group_map agg gm = apply_map agg.seg gm

let by_key cmp bindings = List.sort (fun (a, _) (b, _) -> cmp a b) bindings

let int_bindings tbl =
  by_key Int.compare (Itbl.fold (fun k v acc -> (k, v) :: acc) tbl [])

let build_segment win seg =
  let upto = Stdlib.max 0 seg.max_idx in
  {
    label = seg.slabel;
    window = win;
    cluster = collect seg.cluster_s ~upto;
    groups =
      int_bindings seg.groups_t
      |> List.map (fun (g, sr) -> (g, collect sr ~upto))
      |> Array.of_list;
    nodes =
      int_bindings seg.nodes_t
      |> List.map (fun (n, sr) -> (n, collect sr ~upto))
      |> Array.of_list;
    gauges =
      by_key String.compare
        (Hashtbl.fold (fun k v acc -> (k, v) :: acc) seg.gauges_t [])
      |> List.map (fun (name, gs) ->
             gadvance gs (upto + 1);
             (name, Array.of_list (List.rev gs.gpts)))
      |> Array.of_list;
    faults = Array.of_list (List.rev seg.faults_r);
    recoveries = Array.of_list (List.rev seg.recoveries_r);
  }

let flush agg ~next_label =
  if agg.seg.counted > 0 then begin
    agg.closed <- build_segment agg.win agg.seg :: agg.closed;
    agg.seg <- fresh_seg next_label
  end
  else if agg.seg.slabel = "" then agg.seg.slabel <- next_label
(* A run of consecutive marks (sweep cell header, then the fabric's
   composition/slots marks) describes ONE segment: the first label
   names it, later ones only carry metadata. *)

let series_of tbl n =
  match Itbl.find tbl n with
  | sr -> sr
  | exception Not_found ->
    let sr = series () in
    Itbl.replace tbl n sr;
    sr

(* The per-column updates, each opening the event's window [k] first.
   They are plain functions, so [feed] builds no closure per event. *)
let add_submit sr k =
  advance sr k;
  sr.s <- sr.s + 1;
  sr.cum_s <- sr.cum_s + 1

let add_commit sr k =
  advance sr k;
  sr.c <- sr.c + 1;
  sr.cum_c <- sr.cum_c + 1

let add_latency sr k lat_ms =
  add_commit sr k;
  sr.lat <- lat_ms :: sr.lat

let add_execute sr k =
  advance sr k;
  sr.e <- sr.e + 1

let add_drop sr k =
  advance sr k;
  sr.d <- sr.d + 1

let add_syncs sr k n =
  advance sr k;
  sr.sy <- sr.sy + n

(* Count an event toward the segment; returns its window. *)
let count agg seg at =
  seg.counted <- seg.counted + 1;
  let k = at / agg.win in
  if k > seg.max_idx then seg.max_idx <- k;
  k

let feed agg ev =
  if agg.finished then invalid_arg "Timeline.feed: collector is finished";
  let seg = agg.seg in
  match ev with
  | Journal.Mark { label; at = _ } -> (
    flush agg ~next_label:label;
    match agg.resolver with
    | Some resolve -> (
      match resolve label with
      | Some gm -> apply_map agg.seg gm
      | None -> ())
    | None -> ())
  | Submit { op; node; key; at } ->
    let k = count agg seg at in
    let group =
      match seg.gmap with
      | Some gm -> gm.lookup key
      | None -> -1
    in
    if not (Journal.Opid_tbl.mem seg.ops op) then
      Journal.Opid_tbl.replace seg.ops op
        { submitted_at = at; group; committed = false };
    add_submit seg.cluster_s k;
    add_submit (series_of seg.nodes_t node) k;
    if group >= 0 then add_submit (series_of seg.groups_t group) k
  | Commit { op; node; at } -> (
    let k = count agg seg at in
    match Journal.Opid_tbl.find seg.ops op with
    | info when info.committed -> ()  (* duplicate notification *)
    | info ->
      info.committed <- true;
      let lat_ms = Time_ns.to_ms_f (Time_ns.diff at info.submitted_at) in
      add_latency seg.cluster_s k lat_ms;
      add_latency (series_of seg.nodes_t node) k lat_ms;
      if info.group >= 0 then
        add_latency (series_of seg.groups_t info.group) k lat_ms
    | exception Not_found ->
      (* Submit predates the journal (ring overflow / truncation):
         count the commit, no latency or group attribution. *)
      add_commit seg.cluster_s k;
      add_commit (series_of seg.nodes_t node) k)
  | Execute { op; replica; at } -> (
    let k = count agg seg at in
    add_execute seg.cluster_s k;
    add_execute (series_of seg.nodes_t replica) k;
    match Journal.Opid_tbl.find seg.ops op with
    | info when info.group >= 0 ->
      add_execute (series_of seg.groups_t info.group) k
    | _ | (exception Not_found) -> ())
  | Msg_dropped { dst; at; _ } ->
    let k = count agg seg at in
    add_drop seg.cluster_s k;
    add_drop (series_of seg.nodes_t dst) k
  | Store_sync { node; recs; at; _ } ->
    let k = count agg seg at in
    add_syncs seg.cluster_s k recs;
    add_syncs (series_of seg.nodes_t node) k recs
  | Sample { name; value; at } ->
    let k = count agg seg at in
    let gs =
      match Hashtbl.find_opt seg.gauges_t name with
      | Some gs -> gs
      | None ->
        let gs =
          { gpts = []; gidx = 0; gsum = 0.; gcnt = 0; glast = 0. }
        in
        Hashtbl.replace seg.gauges_t name gs;
        gs
    in
    gadvance gs k;
    gs.gsum <- gs.gsum +. value;
    gs.gcnt <- gs.gcnt + 1;
    gs.glast <- value
  | Fault { name = "drop"; _ } ->
    (* [Inject] journals every suppressed message as a [fault.drop] in
       addition to the regular [Msg_dropped] line; the latter already
       feeds the drops column, so keep the faults list to lifecycle
       events only. *)
    ()
  | Fault { name; detail; at } ->
    ignore (count agg seg at);
    seg.faults_r <- (at, name, detail) :: seg.faults_r
  | Recovery { node; stage; at; _ } ->
    ignore (count agg seg at);
    seg.recoveries_r <- (at, node, stage) :: seg.recoveries_r
  | Migrate { stage; slot; from_g; to_g; epoch; detail; at } -> (
    ignore (count agg seg at);
    let d =
      Printf.sprintf "slot=%d from=g%d to=g%d epoch=%d%s" slot from_g to_g
        epoch
        (if detail = "" then "" else " " ^ detail)
    in
    match stage with
    | "epoch" ->
      (* The live router is re-pointed immediately before this event is
         journaled, so mutating the replay map here keeps offline
         attribution byte-identical to the online tap. *)
      (match seg.gmap with
      | Some gm -> gm.migrate ~slot ~to_g
      | None -> ())
    | "freeze" -> seg.faults_r <- (at, "migrate", d) :: seg.faults_r
    | "done" | "abort" ->
      seg.faults_r <- (at, "migrate." ^ stage, d) :: seg.faults_r
    | _ -> ())
  | Reconfig { stage; group; epoch; detail; at } -> (
    ignore (count agg seg at);
    (* Details lead with [node=<n>] (when a node is affected) so the dip
       analyzer can match heals per node; group/epoch ride along. *)
    let d =
      let tail = Printf.sprintf "group=%d epoch=%d" group epoch in
      if detail = "" then tail else detail ^ " " ^ tail
    in
    match stage with
    | "epoch" -> ()  (* the externalization point, not an outage marker *)
    | "begin" -> seg.faults_r <- (at, "reconfig", d) :: seg.faults_r
    | _ -> seg.faults_r <- (at, "reconfig." ^ stage, d) :: seg.faults_r)
  | Store_ev _ | Msg_sent _ | Msg_delivered _ | Timer_fired _ | Phase _ ->
    (* The detail tier: nothing here reads it. *)
    ()

let tap agg =
  match agg.tap with
  | Some f -> f
  | None ->
    let f = feed agg in
    agg.tap <- Some f;
    f

let absorb agg ~label t =
  if agg.finished then invalid_arg "Timeline.absorb: collector is finished";
  flush agg ~next_label:"";
  let relabel seg =
    let label =
      if seg.label = "" then label
      else if label = "" then seg.label
      else label ^ " " ^ seg.label
    in
    { seg with label }
  in
  List.iter (fun seg -> agg.closed <- relabel seg :: agg.closed) t

let finish agg =
  flush agg ~next_label:"";
  agg.finished <- true;
  List.rev agg.closed

let of_journal ?window ?group_resolver j =
  let agg = create ?window ?group_resolver () in
  Journal.iter j (feed agg);
  finish agg

(* --- rendering --- *)

let sanitize s = String.map (fun c -> if c = ',' then ';' else c) s

let fmt_f3 v = if Float.is_nan v then "" else Printf.sprintf "%.3f" v

let csv_header =
  "seg,label,scope,window,start_ms,submits,commits,rps,p50_ms,p99_ms,\
   inflight,drops,sync_writes"

let add_scope_rows buf ~seg_no ~label ~window ~scope pts =
  Array.iter
    (fun p ->
      Printf.bprintf buf "%d,%s,%s,%d,%.1f,%d,%d,%.3f,%s,%s,%d,%d,%d\n"
        seg_no label scope p.index
        (window_start_ms ~window p.index)
        p.submits p.commits (rps ~window p) (fmt_f3 p.p50_ms)
        (fmt_f3 p.p99_ms) p.inflight p.drops p.sync_writes)
    pts

let to_csv ?(per_node = false) t =
  let buf = Buffer.create 4096 in
  Buffer.add_string buf csv_header;
  Buffer.add_char buf '\n';
  List.iteri
    (fun seg_no seg ->
      let label = sanitize seg.label in
      let window = seg.window in
      add_scope_rows buf ~seg_no ~label ~window ~scope:"cluster" seg.cluster;
      Array.iter
        (fun (g, pts) ->
          add_scope_rows buf ~seg_no ~label ~window
            ~scope:(Printf.sprintf "g%d" g)
            pts)
        seg.groups;
      if per_node then
        Array.iter
          (fun (n, pts) ->
            add_scope_rows buf ~seg_no ~label ~window
              ~scope:(Printf.sprintf "n%d" n)
              pts)
          seg.nodes)
    t;
  Buffer.contents buf

let gauges_to_csv t =
  let buf = Buffer.create 4096 in
  Buffer.add_string buf "seg,label,gauge,window,start_ms,mean,last\n";
  List.iteri
    (fun seg_no seg ->
      let label = sanitize seg.label in
      Array.iter
        (fun (name, gpts) ->
          Array.iter
            (fun g ->
              Printf.bprintf buf "%d,%s,%s,%d,%.1f,%.6g,%.6g\n" seg_no label
                (sanitize name) g.g_index
                (window_start_ms ~window:seg.window g.g_index)
                g.mean g.last)
            gpts)
        seg.gauges)
    t;
  Buffer.contents buf

let point_json ~window p =
  Json.Obj
    [
      ("window", Json.Int p.index);
      ("start_ms", Json.Float (window_start_ms ~window p.index));
      ("submits", Json.Int p.submits);
      ("commits", Json.Int p.commits);
      ("rps", Json.Float (rps ~window p));
      ("p50_ms", Json.Float p.p50_ms);
      ("p99_ms", Json.Float p.p99_ms);
      ("inflight", Json.Int p.inflight);
      ("drops", Json.Int p.drops);
      ("sync_writes", Json.Int p.sync_writes);
      ("executes", Json.Int p.executes);
    ]

let to_json t =
  let seg_json seg =
    let window = seg.window in
    let pts a = Json.List (Array.to_list a |> List.map (point_json ~window)) in
    Json.Obj
      [
        ("label", Json.String seg.label);
        ("window_ms", Json.Float (Time_ns.to_ms_f window));
        ("cluster", pts seg.cluster);
        ( "groups",
          Json.List
            (Array.to_list seg.groups
            |> List.map (fun (g, a) ->
                   Json.Obj [ ("group", Json.Int g); ("points", pts a) ])) );
        ( "nodes",
          Json.List
            (Array.to_list seg.nodes
            |> List.map (fun (n, a) ->
                   Json.Obj [ ("node", Json.Int n); ("points", pts a) ])) );
        ( "gauges",
          Json.List
            (Array.to_list seg.gauges
            |> List.map (fun (name, gpts) ->
                   Json.Obj
                     [
                       ("name", Json.String name);
                       ( "points",
                         Json.List
                           (Array.to_list gpts
                           |> List.map (fun g ->
                                  Json.Obj
                                    [
                                      ("window", Json.Int g.g_index);
                                      ("mean", Json.Float g.mean);
                                      ("last", Json.Float g.last);
                                    ])) );
                     ])) );
        ( "faults",
          Json.List
            (Array.to_list seg.faults
            |> List.map (fun (at, kind, detail) ->
                   Json.Obj
                     [
                       ("at_ms", Json.Float (Time_ns.to_ms_f at));
                       ("kind", Json.String kind);
                       ("detail", Json.String detail);
                     ])) );
        ( "recoveries",
          Json.List
            (Array.to_list seg.recoveries
            |> List.map (fun (at, node, stage) ->
                   Json.Obj
                     [
                       ("at_ms", Json.Float (Time_ns.to_ms_f at));
                       ("node", Json.Int node);
                       ("stage", Json.String stage);
                     ])) );
      ]
  in
  Json.Obj [ ("segments", Json.List (List.map seg_json t)) ]

let summary_table t =
  let tbl =
    Tablefmt.create ~title:"timeline summary"
      ~header:
        [ "seg"; "label"; "scope"; "windows"; "commits"; "mean_rps";
          "peak_p99_ms"; "faults" ]
  in
  List.iteri
    (fun seg_no seg ->
      let row scope pts =
        let commits = Array.fold_left (fun a p -> a + p.commits) 0 pts in
        let secs =
          float_of_int (Array.length pts)
          *. Time_ns.to_sec_f seg.window
        in
        let mean_rps = if secs > 0. then float_of_int commits /. secs else nan in
        let peak_p99 =
          Array.fold_left
            (fun a p ->
              if Float.is_nan p.p99_ms then a
              else if Float.is_nan a then p.p99_ms
              else Float.max a p.p99_ms)
            nan pts
        in
        Tablefmt.add_row tbl
          [
            string_of_int seg_no;
            (if seg.label = "" then "-" else seg.label);
            scope;
            string_of_int (Array.length pts);
            string_of_int commits;
            Tablefmt.cell_f mean_rps;
            Tablefmt.cell_f peak_p99;
            string_of_int (Array.length seg.faults);
          ]
      in
      row "cluster" seg.cluster;
      Array.iter
        (fun (g, pts) -> row (Printf.sprintf "g%d" g) pts)
        seg.groups)
    t;
  tbl
