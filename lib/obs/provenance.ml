open Domino_sim

type component =
  | Client_wait
  | Request_transit
  | Node_wait
  | Sched_wait
  | Sync_wait
  | Quorum_transit
  | Reply_transit

let components =
  [
    Client_wait;
    Request_transit;
    Node_wait;
    Sched_wait;
    Sync_wait;
    Quorum_transit;
    Reply_transit;
  ]

let component_name = function
  | Client_wait -> "client_wait"
  | Request_transit -> "request_transit"
  | Node_wait -> "node_wait"
  | Sched_wait -> "sched_wait"
  | Sync_wait -> "sync_wait"
  | Quorum_transit -> "quorum_transit"
  | Reply_transit -> "reply_transit"

type breakdown = {
  op : Journal.opid;
  submitted_at : Time_ns.t;
  committed_at : Time_ns.t;
  parts : (component * Time_ns.span) list;
}

let latency b = Time_ns.diff b.committed_at b.submitted_at

let total b = List.fold_left (fun acc (_, d) -> acc + d) 0 b.parts

(* The analysis indexes the journal with arrays, not hash tables: node
   ids are the network's array indices and message seqs its send
   counter, so both are small dense ints. Per-node entries live in one
   flat array, built by count-then-fill, node [v]'s slice running from
   [off.(v - node_lo)] to [off.(v - node_lo + 1)]. *)

let offsets counts =
  let off = Array.make (Array.length counts + 1) 0 in
  Array.iteri (fun k c -> off.(k + 1) <- off.(k) + c) counts;
  off

(* Take the next free index of slice [k]. *)
let push cursor k =
  let p = cursor.(k) in
  cursor.(k) <- p + 1;
  p

(* The phase spans carved out of resident time, by kind. *)
let span_kind = function "sched_wait" -> 0 | "sync_wait" -> 1 | _ -> -1

(* Phase spans of one kind, indexed so a residency interval's covered
   time costs O(log S + spans it meets) rather than a fold over every
   span at the node. Anonymous spans ([op = None]) apply to every op:
   per node, sorted by start, with [reach.(i)] the largest end among the
   node's spans up to [i], so a backward scan stops once no earlier span
   reaches the interval. Node ids alias across groups in multi-group
   journals, so spans at one node may overlap; a running max, not the
   previous span's end, keeps the scan exact then. Op-tagged spans
   apply only to their op and are looked up by op; a journal without
   any has no table to consult. *)
type span_index = {
  node_lo : int;
  off : int array;
  starts : Time_ns.t array;
  ends : Time_ns.t array;
  reach : Time_ns.t array;
  tagged : (int * Time_ns.t * Time_ns.t) list Journal.Opid_tbl.t option;
      (** op -> (node, start, end) *)
}

let overlap lo hi s0 s1 =
  Stdlib.max 0 (Time_ns.diff (Stdlib.min hi s1) (Stdlib.max lo s0))

(* Sort each node's slice by start (a slice arrives in record order,
   already sorted unless node ids alias), then fill [reach]. *)
let index_spans ~node_lo off starts ends tagged =
  let reach = Array.copy ends in
  for k = 0 to Array.length off - 2 do
    let a = off.(k) and b = off.(k + 1) in
    let sorted = ref true in
    for i = a + 1 to b - 1 do
      if starts.(i) < starts.(i - 1) then sorted := false
    done;
    if not !sorted then begin
      let perm = Array.init (b - a) (fun i -> a + i) in
      Array.stable_sort (fun x y -> Int.compare starts.(x) starts.(y)) perm;
      let s = Array.map (Array.get starts) perm
      and e = Array.map (Array.get ends) perm in
      Array.blit s 0 starts a (b - a);
      Array.blit e 0 ends a (b - a);
      Array.blit e 0 reach a (b - a)
    end;
    for i = a + 1 to b - 1 do
      reach.(i) <- Stdlib.max reach.(i - 1) reach.(i)
    done
  done;
  let tagged =
    if Journal.Opid_tbl.length tagged = 0 then None else Some tagged
  in
  { node_lo; off; starts; ends; reach; tagged }

(* Sum over the spans at [node] that apply to [op] of each span's
   overlap with [lo, hi). Overlapping spans each count in full; callers
   clamp the sum to the interval. *)
let covered idx node op lo hi =
  let k = node - idx.node_lo in
  let from_anon =
    if k < 0 || k >= Array.length idx.off - 1 then 0
    else begin
      let first = idx.off.(k) in
      (* first index in the slice whose start is >= hi *)
      let l = ref first and h = ref idx.off.(k + 1) in
      while !l < !h do
        let mid = (!l + !h) / 2 in
        if idx.starts.(mid) < hi then l := mid + 1 else h := mid
      done;
      let acc = ref 0 and i = ref (!l - 1) in
      while !i >= first && idx.reach.(!i) > lo do
        acc := !acc + overlap lo hi idx.starts.(!i) idx.ends.(!i);
        decr i
      done;
      !acc
    end
  in
  match idx.tagged with
  | None -> from_anon
  | Some tagged -> (
    match Journal.Opid_tbl.find_opt tagged op with
    | None -> from_anon
    | Some spans ->
      List.fold_left
        (fun acc (n, s0, s1) ->
          if n = node then acc + overlap lo hi s0 s1 else acc)
        from_anon spans)

let analyze j =
  let evs = Journal.to_array j in
  (* Pass 1: the ranges of node ids and message seqs. *)
  let node_lo = ref max_int and node_hi = ref min_int in
  let seq_lo = ref max_int and seq_hi = ref min_int in
  let see_node v =
    if v < !node_lo then node_lo := v;
    if v > !node_hi then node_hi := v
  in
  Array.iter
    (function
      | Journal.Msg_sent { seq; _ } when seq >= 0 ->
        if seq < !seq_lo then seq_lo := seq;
        if seq > !seq_hi then seq_hi := seq
      | Journal.Msg_delivered { dst; _ } -> see_node dst
      | Journal.Phase { node; name; dur; _ } when dur > 0 && span_kind name >= 0
        ->
        see_node node
      | _ -> ())
    evs;
  let width lo hi = if hi < lo then 0 else hi - lo + 1 in
  let nodes = width !node_lo !node_hi in
  let node_lo = !node_lo and seq_lo = !seq_lo in
  (* Pass 2: the first submit of each op, the first send of each seq,
     op-tagged spans, and per-node counts. Event order is simulation
     order, so indices are time-ordered. *)
  let submits = Journal.Opid_tbl.create 1024 in
  let sent_of_seq = Array.make (width seq_lo !seq_hi) (-1) in
  let n_dels = Array.make nodes 0 in
  let n_spans = Array.init 2 (fun _ -> Array.make nodes 0) in
  let tagged = Array.init 2 (fun _ -> Journal.Opid_tbl.create 16) in
  Array.iteri
    (fun i ev ->
      match ev with
      | Journal.Submit { op; _ } ->
        if not (Journal.Opid_tbl.mem submits op) then
          Journal.Opid_tbl.add submits op i
      | Journal.Msg_sent { seq; _ } when seq >= 0 ->
        let k = seq - seq_lo in
        if sent_of_seq.(k) < 0 then sent_of_seq.(k) <- i
      | Journal.Msg_delivered { dst; _ } ->
        let k = dst - node_lo in
        n_dels.(k) <- n_dels.(k) + 1
      | Journal.Phase { node; op; name; dur; at } when dur > 0 -> (
        let kind = span_kind name in
        if kind >= 0 then
          match op with
          | None ->
            let n = n_spans.(kind) and k = node - node_lo in
            n.(k) <- n.(k) + 1
          | Some o ->
            let t = tagged.(kind) in
            let span = (node, at, Time_ns.add at dur) in
            let prev = Journal.Opid_tbl.find_opt t o in
            Journal.Opid_tbl.replace t o
              (span :: Option.value ~default:[] prev))
      | _ -> ())
    evs;
  (* Pass 3: fill the per-node slices. *)
  let dels_off = offsets n_dels in
  let dels = Array.make dels_off.(nodes) 0 in
  let dels_at = Array.sub dels_off 0 nodes in
  let spans_off = Array.map offsets n_spans in
  let starts = Array.map (fun off -> Array.make off.(nodes) 0) spans_off in
  let ends = Array.map (fun off -> Array.make off.(nodes) 0) spans_off in
  let spans_at = Array.map (fun off -> Array.sub off 0 nodes) spans_off in
  Array.iteri
    (fun i ev ->
      match ev with
      | Journal.Msg_delivered { dst; _ } ->
        dels.(push dels_at (dst - node_lo)) <- i
      | Journal.Phase { node; op = None; name; dur; at } when dur > 0 ->
        let kind = span_kind name in
        if kind >= 0 then begin
          let p = push spans_at.(kind) (node - node_lo) in
          starts.(kind).(p) <- at;
          ends.(kind).(p) <- Time_ns.add at dur
        end
      | _ -> ())
    evs;
  let index kind =
    index_spans ~node_lo spans_off.(kind) starts.(kind) ends.(kind)
      tagged.(kind)
  in
  let sched = index 0 and syncs = index 1 in
  (* Largest delivery index at [node] that is < before and > after: a
     binary search in the node's (time-ordered) deliveries. *)
  let latest_delivery node ~before ~after =
    let k = node - node_lo in
    if k < 0 || k >= nodes then -1
    else begin
      let first = dels_off.(k) in
      let lo = ref first and hi = ref dels_off.(k + 1) in
      while !lo < !hi do
        let mid = (!lo + !hi) / 2 in
        if dels.(mid) < before then lo := mid + 1 else hi := mid
      done;
      if !lo = first then -1
      else
        let d = dels.(!lo - 1) in
        if d > after then d else -1
    end
  in
  (* The first send of [seq] if it precedes delivery [jd], else [jd]. *)
  let sent_before seq jd =
    let k = seq - seq_lo in
    if k >= 0 && k < Array.length sent_of_seq then begin
      let s = sent_of_seq.(k) in
      if s >= 0 && s < jd then s else jd
    end
    else jd
  in
  let out = ref [] in
  Array.iteri
    (fun ci ev ->
      match ev with
      | Journal.Commit { op; node = commit_node; at = commit_at } -> (
        match Journal.Opid_tbl.find_opt submits op with
        | Some i_s when i_s >= 0 ->
          (* Only an op's first commit is analyzed. *)
          Journal.Opid_tbl.replace submits op (-1);
          let submit_node, at_s =
            match evs.(i_s) with
            | Journal.Submit { node; at; _ } -> (node, at)
            | _ -> assert false
          in
          if ci > i_s && commit_at >= at_s then begin
            let client_wait = ref 0
            and node_wait = ref 0
            and sched_wait = ref 0
            and sync_wait = ref 0 in
            let add_resident node lo hi =
              let d = Time_ns.diff hi lo in
              if d > 0 then
                if node = submit_node then client_wait := !client_wait + d
                else begin
                  let sched_overlap =
                    Stdlib.min (covered sched node op lo hi) d
                  in
                  (* fsync waits rank below intentional scheduling delay:
                     whatever residency sched_wait already claims is not
                     re-attributed to the disk. *)
                  let sync_overlap =
                    Stdlib.min (covered syncs node op lo hi)
                      (d - sched_overlap)
                  in
                  sched_wait := !sched_wait + sched_overlap;
                  sync_wait := !sync_wait + sync_overlap;
                  node_wait := !node_wait + (d - sched_overlap - sync_overlap)
                end
            in
            (* The walk meets hops newest first: the first is the reply
               to the committing node, the last the request if it left
               the submitting node, and every hop between is quorum
               traffic. The latest hop stays pending until the walk
               shows whether an earlier one follows it. *)
            let request_t = ref 0 and quorum_t = ref 0 and reply_t = ref 0 in
            let hops = ref 0 and pending_src = ref 0 and pending = ref 0 in
            let hop src d =
              if !hops = 0 then reply_t := !reply_t + d
              else begin
                if !hops >= 2 then quorum_t := !quorum_t + !pending;
                pending_src := src;
                pending := d
              end;
              incr hops
            in
            let rec walk node time idx =
              if time > at_s then begin
                let jd = latest_delivery node ~before:idx ~after:i_s in
                if jd < 0 then add_resident node at_s time
                else begin
                  match evs.(jd) with
                  | Journal.Msg_delivered { seq; src; sent_at; at = d_at; _ }
                    ->
                    add_resident node d_at time;
                    hop src (Time_ns.diff d_at (Stdlib.max sent_at at_s));
                    if sent_at > at_s then walk src sent_at (sent_before seq jd)
                  | _ -> assert false
                end
              end
            in
            walk commit_node commit_at ci;
            if !hops >= 2 then
              if !pending_src = submit_node then
                request_t := !request_t + !pending
              else quorum_t := !quorum_t + !pending;
            let parts =
              [
                (Client_wait, !client_wait);
                (Request_transit, !request_t);
                (Node_wait, !node_wait);
                (Sched_wait, !sched_wait);
                (Sync_wait, !sync_wait);
                (Quorum_transit, !quorum_t);
                (Reply_transit, !reply_t);
              ]
            in
            out :=
              { op; submitted_at = at_s; committed_at = commit_at; parts }
              :: !out
          end
        | _ -> ())
      | _ -> ())
    evs;
  List.rev !out

let record metrics bs =
  let ops = Metrics.counter metrics "prov.ops" in
  let hist c =
    Metrics.histogram metrics ("prov." ^ component_name c ^ "_ms")
  in
  let hists = List.map (fun c -> (c, hist c)) components in
  List.iter
    (fun b ->
      Metrics.inc ops;
      List.iter
        (fun (c, d) ->
          Metrics.observe (List.assq c hists) (Time_ns.to_ms_f d))
        b.parts)
    bs

let to_table bs =
  let tbl =
    Domino_stats.Tablefmt.create ~title:"Latency provenance"
      ~header:[ "component"; "mean"; "p95"; "share" ]
  in
  let summaries =
    List.map (fun c -> (c, Domino_stats.Summary.create ())) components
  in
  let total_ms = ref 0. in
  List.iter
    (fun b ->
      List.iter
        (fun (c, d) ->
          let ms = Time_ns.to_ms_f d in
          total_ms := !total_ms +. ms;
          Domino_stats.Summary.add (List.assq c summaries) ms)
        b.parts)
    bs;
  List.iter
    (fun (c, s) ->
      let sum =
        Domino_stats.Summary.mean s *. float_of_int (Domino_stats.Summary.count s)
      in
      let share =
        if !total_ms > 0. then 100. *. sum /. !total_ms else nan
      in
      Domino_stats.Tablefmt.add_row tbl
        [
          component_name c;
          Domino_stats.Tablefmt.cell_ms (Domino_stats.Summary.mean s);
          Domino_stats.Tablefmt.cell_ms
            (Domino_stats.Summary.percentile s 95.);
          (if Float.is_nan share then "-"
           else Printf.sprintf "%.1f%%" share);
        ])
    summaries;
  tbl

(* --- one op's span tree --- *)

(* The op and instant of the five event kinds a span tree shows. *)
let op_at = function
  | Journal.Submit { op; at; _ }
  | Journal.Commit { op; at; _ }
  | Journal.Execute { op; at; _ }
  | Journal.Msg_sent { op = Some op; at; _ }
  | Journal.Msg_delivered { op = Some op; at; _ } -> Some (op, at)
  | _ -> None

let belongs o ev =
  match op_at ev with
  | Some (op, _) -> op = o
  | None -> false

type focus = {
  nth : int;
  mutable submits : int;
  mutable op : Journal.opid option;
  mutable kept : Journal.event list;  (** newest first *)
}

let focus nth =
  if nth < 0 then invalid_arg "Provenance.focus: nth must be >= 0";
  { nth; submits = 0; op = None; kept = [] }

let observe f ev =
  match f.op with
  | Some o -> if belongs o ev then f.kept <- ev :: f.kept
  | None -> (
    match ev with
    | Journal.Submit { op; _ } ->
      if f.submits = f.nth then begin
        f.op <- Some op;
        f.kept <- [ ev ]
      end;
      f.submits <- f.submits + 1
    | _ -> ())

(* The tree is made of sends and deliveries: a detail reader. *)
let attach f j = Journal.add_tap ~reads:Detail j (observe f)

let focused f = List.rev f.kept

let ms at = Printf.sprintf "%.3fms" (Time_ns.to_ms_f at)

let span_ms a b = Printf.sprintf "+%.3fms" (Time_ns.to_ms_f (Time_ns.diff b a))

let label base = function
  | Journal.Submit { node; at; _ } ->
    Printf.sprintf "submit at n%d @ %s" node (ms at)
  | Journal.Msg_sent { src; dst; cls; at; _ } ->
    Printf.sprintf "%s n%d->n%d @ %s (%s)" cls src dst (ms at) (span_ms base at)
  | Journal.Msg_delivered { src; dst; cls; sent_at; at; _ } ->
    Printf.sprintf "deliver %s n%d->n%d @ %s (wire %s)" cls src dst (ms at)
      (span_ms sent_at at)
  | Journal.Commit { node; at; _ } ->
    Printf.sprintf "commit learned at n%d @ %s (%s)" node (ms at)
      (span_ms base at)
  | Journal.Execute { replica; at; _ } ->
    Printf.sprintf "execute at replica n%d @ %s (%s)" replica (ms at)
      (span_ms base at)
  | _ -> assert false

let span_tree events =
  match List.find_map op_at events with
  | None -> ""
  | Some (o, base) ->
    let evs = Array.of_list (List.filter (belongs o) events) in
    let n = Array.length evs in
    (* The same causality rule as [analyze], over this op's events
       only: a delivery's parent is its send (the last one carrying
       its sequence number); anything else a node does hangs off the
       latest delivery there, or failing that the latest submit there.
       One pass, with the latest delivery and submit per node kept as
       the walk goes. *)
    let last_sent = Hashtbl.create 16 in
    Array.iteri
      (fun i -> function
        | Journal.Msg_sent { seq; _ } -> Hashtbl.replace last_sent seq i
        | _ -> ())
      evs;
    let latest_del = Hashtbl.create 8 and latest_sub = Hashtbl.create 2 in
    let resident_parent node =
      match Hashtbl.find_opt latest_del node with
      | Some d -> d
      | None -> Option.value ~default:(-1) (Hashtbl.find_opt latest_sub node)
    in
    let parent =
      Array.mapi
        (fun i -> function
          | Journal.Submit { node; _ } ->
            Hashtbl.replace latest_sub node i;
            -1
          | Journal.Msg_delivered { seq; dst; _ } ->
            Hashtbl.replace latest_del dst i;
            Option.value ~default:(-1) (Hashtbl.find_opt last_sent seq)
          | Journal.Msg_sent { src = node; _ }
          | Journal.Commit { node; _ }
          | Journal.Execute { replica = node; _ } -> resident_parent node
          | _ -> assert false)
        evs
    in
    let children = Array.make n [] and roots = ref [] in
    for i = n - 1 downto 0 do
      let p = parent.(i) in
      if p >= 0 then children.(p) <- i :: children.(p)
      else roots := i :: !roots
    done;
    let buf = Buffer.create 512 in
    let client, seq = o in
    Buffer.add_string buf (Printf.sprintf "op n%d#%d\n" client seq);
    let rec render_all prefix = function
      | [] -> ()
      | [ i ] -> render prefix true i
      | i :: rest ->
        render prefix false i;
        render_all prefix rest
    and render prefix is_last i =
      Buffer.add_string buf prefix;
      Buffer.add_string buf (if is_last then "`- " else "|- ");
      Buffer.add_string buf (label base evs.(i));
      Buffer.add_char buf '\n';
      render_all (prefix ^ if is_last then "   " else "|  ") children.(i)
    in
    render_all "" !roots;
    Buffer.contents buf
