module Json = Domino_stats.Json

(* Trace-event timestamps are microseconds; sim-time is integer
   nanoseconds, so this is exact to 1/1000 µs and deterministic. *)
let us ns = float_of_int ns /. 1000.

let opid_str (c, s) = Printf.sprintf "%d#%d" c s

let op_args = function
  | None -> []
  | Some id -> [ ("args", Json.Obj [ ("op", Json.String (opid_str id)) ]) ]

let slice ~name ~cat ~tid ~ts ~dur extra =
  Json.Obj
    ([
       ("name", Json.String name);
       ("cat", Json.String cat);
       ("ph", Json.String "X");
       ("ts", Json.Float (us ts));
       ("dur", Json.Float (us dur));
       ("pid", Json.Int 0);
       ("tid", Json.Int tid);
     ]
    @ extra)

let instant ~name ~scope ~tid ~ts extra =
  Json.Obj
    ([
       ("name", Json.String name);
       ("ph", Json.String "i");
       ("s", Json.String scope);
       ("ts", Json.Float (us ts));
       ("pid", Json.Int 0);
       ("tid", Json.Int tid);
     ]
    @ extra)

let flow ~start ~name ~id ~tid ~ts =
  Json.Obj
    ([
       ("name", Json.String name);
       ("cat", Json.String "msg");
       ("ph", Json.String (if start then "s" else "f"));
     ]
    @ (if start then [] else [ ("bp", Json.String "e") ])
    @ [
        ("id", Json.Int id);
        ("ts", Json.Float (us ts));
        ("pid", Json.Int 0);
        ("tid", Json.Int tid);
      ])

let counter ~name ~ts ~value =
  Json.Obj
    [
      ("name", Json.String name);
      ("ph", Json.String "C");
      ("ts", Json.Float (us ts));
      ("pid", Json.Int 0);
      ("tid", Json.Int 0);
      ("args", Json.Obj [ ("value", Json.Float value) ]);
    ]

(* A message's anchor slices: flow arrows must start and finish inside
   a slice, so each send/delivery gets a 1µs sliver on its track. *)
let anchor_dur = 1000

(* Timeline windows render as extra counter tracks ("timeline.<scope>.rps"
   etc.) stamped at each window start, so the windowed view overlays the
   raw per-event slices in the trace UI. *)
let timeline_counters tl =
  let out = ref [] in
  let push e = out := e :: !out in
  List.iter
    (fun (seg : Timeline.segment) ->
      let window = seg.Timeline.window in
      let track scope pts =
        Array.iter
          (fun (p : Timeline.point) ->
            let ts =
              int_of_float (Timeline.window_start_ms ~window p.Timeline.index *. 1e6)
            in
            let c name value =
              if not (Float.is_nan value) then
                push (counter ~name:(Printf.sprintf "timeline.%s.%s" scope name)
                        ~ts ~value)
            in
            c "rps" (Timeline.rps ~window p);
            c "inflight" (float_of_int p.Timeline.inflight);
            c "p99_ms" p.Timeline.p99_ms)
          pts
      in
      track "cluster" seg.Timeline.cluster;
      Array.iter
        (fun (g, pts) -> track (Printf.sprintf "g%d" g) pts)
        seg.Timeline.groups)
    tl;
  List.rev !out

let of_journal ?timeline j =
  (* Pass 1: the set of node tracks, in id order. *)
  let nodes = Hashtbl.create 16 in
  let note n = Hashtbl.replace nodes n () in
  Journal.iter j (fun ev ->
      match ev with
      | Journal.Submit { node; _ } | Journal.Commit { node; _ }
      | Journal.Phase { node; _ } ->
        note node
      | Journal.Execute { replica; _ } -> note replica
      | Journal.Msg_sent { src; dst; _ }
      | Journal.Msg_delivered { src; dst; _ }
      | Journal.Msg_dropped { src; dst; _ } ->
        note src;
        note dst
      | Journal.Store_ev { node; _ } | Journal.Store_sync { node; _ }
      | Journal.Recovery { node; _ } ->
        note node
      | Journal.Timer_fired _ | Journal.Sample _ | Journal.Mark _
      | Journal.Fault _ | Journal.Migrate _ | Journal.Reconfig _ -> ());
  let node_ids =
    List.sort compare (Hashtbl.fold (fun n () acc -> n :: acc) nodes [])
  in
  let metadata =
    Json.Obj
      [
        ("name", Json.String "process_name");
        ("ph", Json.String "M");
        ("pid", Json.Int 0);
        ("args", Json.Obj [ ("name", Json.String "domino-sim") ]);
      ]
    :: List.concat_map
         (fun n ->
           [
             Json.Obj
               [
                 ("name", Json.String "thread_name");
                 ("ph", Json.String "M");
                 ("pid", Json.Int 0);
                 ("tid", Json.Int n);
                 ("args",
                  Json.Obj [ ("name", Json.String (Printf.sprintf "node %d" n)) ]);
               ];
             Json.Obj
               [
                 ("name", Json.String "thread_sort_index");
                 ("ph", Json.String "M");
                 ("pid", Json.Int 0);
                 ("tid", Json.Int n);
                 ("args", Json.Obj [ ("sort_index", Json.Int n) ]);
               ];
           ])
         node_ids
  in
  (* Pass 2: the events themselves, in journal order. *)
  let out = ref [] in
  let push e = out := e :: !out in
  Journal.iter j (fun ev ->
      match ev with
      | Journal.Submit { op; node; at; _ } ->
        push
          (instant ~name:("submit " ^ opid_str op) ~scope:"t" ~tid:node ~ts:at
             [])
      | Journal.Commit { op; node; at } ->
        push
          (instant ~name:("commit " ^ opid_str op) ~scope:"t" ~tid:node ~ts:at
             [])
      | Journal.Execute { op; replica; at } ->
        push
          (instant ~name:("execute " ^ opid_str op) ~scope:"t" ~tid:replica
             ~ts:at [])
      | Journal.Msg_sent { seq; src; cls; op; at; _ } ->
        push (slice ~name:cls ~cat:"msg" ~tid:src ~ts:at ~dur:anchor_dur
                (op_args op));
        if seq >= 0 then push (flow ~start:true ~name:cls ~id:seq ~tid:src ~ts:at)
      | Journal.Msg_delivered { seq; dst; cls; op; at; _ } ->
        push (slice ~name:cls ~cat:"msg" ~tid:dst ~ts:at ~dur:anchor_dur
                (op_args op));
        if seq >= 0 then
          push (flow ~start:false ~name:cls ~id:seq ~tid:dst ~ts:at)
      | Journal.Msg_dropped { dst; cls; reason; at; _ } ->
        push
          (instant
             ~name:(Printf.sprintf "drop %s (%s)" cls reason)
             ~scope:"t" ~tid:dst ~ts:at [])
      | Journal.Phase { node; op; name; dur; at } ->
        if dur > 0 then
          push (slice ~name ~cat:"phase" ~tid:node ~ts:at ~dur (op_args op))
        else push (instant ~name ~scope:"t" ~tid:node ~ts:at (op_args op))
      | Journal.Sample { name; value; at } ->
        push (counter ~name ~ts:at ~value)
      | Journal.Mark { label; at } ->
        push (instant ~name:label ~scope:"g" ~tid:0 ~ts:at [])
      | Journal.Fault { name; detail; at } ->
        push
          (instant
             ~name:(Printf.sprintf "fault.%s %s" name detail)
             ~scope:"g" ~tid:0 ~ts:at [])
      | Journal.Store_ev { node; op; detail; at } ->
        push
          (instant
             ~name:(Printf.sprintf "store.%s %s" op detail)
             ~scope:"t" ~tid:node ~ts:at [])
      | Journal.Store_sync { node; recs; upto; dur_us; at } ->
        push
          (instant
             ~name:
               (Printf.sprintf "store.sync recs=%d upto=%d dur_us=%d" recs upto
                  dur_us)
             ~scope:"t" ~tid:node ~ts:at [])
      | Journal.Recovery { node; stage; detail; at } ->
        push
          (instant
             ~name:(Printf.sprintf "recovery.%s %s" stage detail)
             ~scope:"t" ~tid:node ~ts:at [])
      | Journal.Migrate { stage; slot; from_g; to_g; epoch; at; _ } ->
        push
          (instant
             ~name:
               (Printf.sprintf "migrate.%s slot=%d g%d>g%d epoch=%d" stage
                  slot from_g to_g epoch)
             ~scope:"g" ~tid:0 ~ts:at [])
      | Journal.Reconfig { stage; group; epoch; detail; at } ->
        push
          (instant
             ~name:
               (Printf.sprintf "reconfig.%s group=%d epoch=%d%s" stage group
                  epoch
                  (if detail = "" then "" else " " ^ detail))
             ~scope:"g" ~tid:0 ~ts:at [])
      | Journal.Timer_fired _ -> ());
  let extra =
    match timeline with None -> [] | Some tl -> timeline_counters tl
  in
  Json.Obj
    [
      ("traceEvents", Json.List (metadata @ List.rev !out @ extra));
      ("displayTimeUnit", Json.String "ms");
    ]

let to_string ?timeline j = Json.to_string (of_journal ?timeline j) ^ "\n"
