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

(* Phase spans of one kind ([sched_wait] or [sync_wait]), indexed so a
   residency interval's covered time costs O(log S + spans it meets)
   rather than a fold over every span at the node. Anonymous spans
   ([op = None]) apply to every op: per node, sorted by start, with
   [reach.(i)] the largest end among spans [0..i], so a backward scan
   stops once no earlier span reaches the interval. Node ids alias
   across groups in multi-group journals, so spans at one node may
   overlap; a running max, not the previous span's end, keeps the scan
   exact then. Op-tagged spans apply only to their op and are looked up
   by (node, op). *)
type anon = {
  starts : Time_ns.t array;
  ends : Time_ns.t array;
  reach : Time_ns.t array;
}

type span_index = {
  anon : (int, anon) Hashtbl.t;
  tagged : (int * Journal.opid, (Time_ns.t * Time_ns.t) list) Hashtbl.t;
}

let overlap lo hi s0 s1 =
  Stdlib.max 0 (Time_ns.diff (Stdlib.min hi s1) (Stdlib.max lo s0))

let index_spans spans_by_node =
  let anon = Hashtbl.create 64 and tagged = Hashtbl.create 256 in
  Hashtbl.iter
    (fun node spans ->
      let untagged =
        List.filter_map
          (fun (op, s0, s1) ->
            match op with
            | None -> Some (s0, s1)
            | Some o ->
              let k = (node, o) in
              let prev = Option.value ~default:[] (Hashtbl.find_opt tagged k) in
              Hashtbl.replace tagged k ((s0, s1) :: prev);
              None)
          !spans
        |> Array.of_list
      in
      if untagged <> [||] then begin
        Array.stable_sort (fun (x, _) (y, _) -> Int.compare x y) untagged;
        let starts = Array.map fst untagged and ends = Array.map snd untagged in
        let reach = Array.copy ends in
        for i = 1 to Array.length reach - 1 do
          reach.(i) <- Stdlib.max reach.(i - 1) reach.(i)
        done;
        Hashtbl.add anon node { starts; ends; reach }
      end)
    spans_by_node;
  { anon; tagged }

(* Sum over the spans at [node] that apply to [op] of each span's
   overlap with [lo, hi). Overlapping spans each count in full; callers
   clamp the sum to the interval. *)
let covered idx node op lo hi =
  let from_anon =
    match Hashtbl.find_opt idx.anon node with
    | None -> 0
    | Some { starts; ends; reach } ->
      (* first index whose start is >= hi *)
      let l = ref 0 and h = ref (Array.length starts) in
      while !l < !h do
        let mid = (!l + !h) / 2 in
        if starts.(mid) < hi then l := mid + 1 else h := mid
      done;
      let acc = ref 0 and i = ref (!l - 1) in
      while !i >= 0 && reach.(!i) > lo do
        acc := !acc + overlap lo hi starts.(!i) ends.(!i);
        decr i
      done;
      !acc
  in
  match Hashtbl.find_opt idx.tagged (node, op) with
  | None -> from_anon
  | Some spans ->
    List.fold_left
      (fun acc (s0, s1) -> acc + overlap lo hi s0 s1)
      from_anon spans

let analyze j =
  let evs = Journal.to_array j in
  (* Indexes. Event order is simulation order, so indices are
     time-ordered; "latest delivery at a node before index i" is a
     binary search in that node's delivery-index array. *)
  let submits : (Journal.opid, int) Hashtbl.t = Hashtbl.create 1024 in
  let sent_of_seq : (int, int) Hashtbl.t = Hashtbl.create 4096 in
  let dels_acc : (int, int list ref) Hashtbl.t = Hashtbl.create 64 in
  let sched_acc = Hashtbl.create 64 and syncs_acc = Hashtbl.create 64 in
  let add_span tbl node span =
    match Hashtbl.find_opt tbl node with
    | Some l -> l := span :: !l
    | None -> Hashtbl.add tbl node (ref [ span ])
  in
  Array.iteri
    (fun i ev ->
      match ev with
      | Journal.Submit { op; _ } ->
        if not (Hashtbl.mem submits op) then Hashtbl.add submits op i
      | Journal.Msg_sent { seq; _ } ->
        if seq >= 0 && not (Hashtbl.mem sent_of_seq seq) then
          Hashtbl.add sent_of_seq seq i
      | Journal.Msg_delivered { dst; _ } -> begin
        match Hashtbl.find_opt dels_acc dst with
        | Some l -> l := i :: !l
        | None -> Hashtbl.add dels_acc dst (ref [ i ])
      end
      | Journal.Phase { node; op; name = "sched_wait"; dur; at } when dur > 0
        -> add_span sched_acc node (op, at, Time_ns.add at dur)
      | Journal.Phase { node; op; name = "sync_wait"; dur; at } when dur > 0 ->
        add_span syncs_acc node (op, at, Time_ns.add at dur)
      | _ -> ())
    evs;
  let sched = index_spans sched_acc and syncs = index_spans syncs_acc in
  let dels : (int, int array) Hashtbl.t = Hashtbl.create 64 in
  Hashtbl.iter
    (fun node l -> Hashtbl.add dels node (Array.of_list (List.rev !l)))
    dels_acc;
  (* Largest delivery index at [node] that is < before and > after. *)
  let latest_delivery node ~before ~after =
    match Hashtbl.find_opt dels node with
    | None -> -1
    | Some arr ->
      let lo = ref 0 and hi = ref (Array.length arr) in
      while !lo < !hi do
        let mid = (!lo + !hi) / 2 in
        if arr.(mid) < before then lo := mid + 1 else hi := mid
      done;
      if !lo = 0 then -1
      else
        let k = arr.(!lo - 1) in
        if k > after then k else -1
  in
  let seen_commit : (Journal.opid, unit) Hashtbl.t = Hashtbl.create 1024 in
  let out = ref [] in
  Array.iteri
    (fun ci ev ->
      match ev with
      | Journal.Commit { op; node = commit_node; at = commit_at }
        when (not (Hashtbl.mem seen_commit op)) && Hashtbl.mem submits op ->
        Hashtbl.add seen_commit op ();
        let i_s = Hashtbl.find submits op in
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
          (* Hops accumulate in reverse walk order, which (prepending)
             leaves the list in causal order. *)
          let hops = ref [] in
          let add_resident node lo hi =
            let d = Time_ns.diff hi lo in
            if d > 0 then
              if node = submit_node then client_wait := !client_wait + d
              else begin
                let sched_overlap = Stdlib.min (covered sched node op lo hi) d in
                (* fsync waits rank below intentional scheduling delay:
                   whatever residency sched_wait already claims is not
                   re-attributed to the disk. *)
                let sync_overlap =
                  Stdlib.min (covered syncs node op lo hi) (d - sched_overlap)
                in
                sched_wait := !sched_wait + sched_overlap;
                sync_wait := !sync_wait + sync_overlap;
                node_wait := !node_wait + (d - sched_overlap - sync_overlap)
              end
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
                  let wire_lo = Stdlib.max sent_at at_s in
                  hops := (src, Time_ns.diff d_at wire_lo) :: !hops;
                  if sent_at > at_s then begin
                    let si =
                      match Hashtbl.find_opt sent_of_seq seq with
                      | Some s when s < jd -> s
                      | _ -> jd
                    in
                    walk src sent_at si
                  end
                | _ -> assert false
              end
            end
          in
          walk commit_node commit_at ci;
          let hops = !hops in
          let k = List.length hops in
          let request_t = ref 0 and quorum_t = ref 0 and reply_t = ref 0 in
          List.iteri
            (fun i (src, d) ->
              if i = k - 1 then reply_t := !reply_t + d
              else if i = 0 && src = submit_node then
                request_t := !request_t + d
              else quorum_t := !quorum_t + d)
            hops;
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
