(* Flight-recorder tests: journal ring and tap semantics, byte-identical
   output across --jobs, provenance components tiling the commit
   latency for every protocol, and the Perfetto exporter. *)

open Domino_sim
open Domino_obs
open Domino_exp

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

let contains haystack needle =
  let nh = String.length haystack and nn = String.length needle in
  let rec go i = i + nn <= nh && (String.sub haystack i nn = needle || go (i + 1)) in
  go 0

(* --- ring buffer --------------------------------------------------- *)

let mark i = Journal.Mark { label = string_of_int i; at = i }

let test_ring_overwrite () =
  let j = Journal.create ~capacity:4 () in
  for i = 0 to 9 do
    Journal.record j (mark i)
  done;
  check_int "length" 4 (Journal.length j);
  check_int "recorded" 10 (Journal.recorded j);
  check_int "dropped" 6 (Journal.dropped j);
  let labels =
    Array.map
      (function Journal.Mark { label; _ } -> label | _ -> "?")
      (Journal.to_array j)
  in
  Alcotest.(check (array string))
    "keeps the newest, oldest first" [| "6"; "7"; "8"; "9" |] labels

(* The ring is allocated on demand, doubling from 1024 slots up to its
   capacity: across every doubling and the wrap it must keep the newest
   [capacity] events, oldest first, and count the rest as dropped. *)
let test_ring_grows =
  QCheck.Test.make ~name:"growing ring keeps the newest events" ~count:100
    QCheck.(pair (int_range 1 5_000) (int_range 0 12_000))
    (fun (capacity, n) ->
      let j = Journal.create ~capacity () in
      for i = 0 to n - 1 do
        Journal.record j (Journal.Timer_fired { at = i })
      done;
      let kept = min n capacity in
      let ats = ref [] in
      Journal.iter j (function
        | Journal.Timer_fired { at } -> ats := at :: !ats
        | _ -> ());
      Journal.length j = kept
      && Journal.dropped j = n - kept
      && Journal.recorded j = n
      && List.rev !ats = List.init kept (fun k -> n - kept + k)
      && Journal.to_array j
         = Array.init kept (fun k -> Journal.Timer_fired { at = n - kept + k }))

let test_sink_disabled () =
  check_bool "null sink disabled" true (not (Journal.enabled Journal.null));
  Journal.emit Journal.null (mark 0) (* no-op, must not raise *);
  let j = Journal.create ~capacity:8 () in
  check_bool "real sink enabled" true (Journal.enabled (Journal.sink j));
  Journal.emit (Journal.sink j) (mark 1);
  check_int "recorded via sink" 1 (Journal.length j)

let test_append_order () =
  let a = Journal.create ~capacity:8 () in
  let b = Journal.create ~capacity:8 () in
  Journal.record b (mark 1);
  Journal.record b (mark 2);
  Journal.record a (mark 0);
  Journal.append a b;
  Alcotest.(check string)
    "concatenated oldest-first" "@0 mark 0\n@1 mark 1\n@2 mark 2\n"
    (Journal.to_lines a)

(* Two taps compose: each sees every event in record order — past ring
   overwrite, and including events copied in by [append]. Installing
   the same closure twice does not feed it twice. *)
let test_taps_compose () =
  let j = Journal.create ~capacity:2 () in
  let seen_a = ref [] and seen_b = ref [] in
  Journal.record j (mark 0) (* before any tap: seen by neither *);
  let tap_a ev = seen_a := ev :: !seen_a in
  Journal.add_tap j tap_a;
  Journal.add_tap j (fun ev -> seen_b := ev :: !seen_b);
  Journal.add_tap j tap_a;
  let src = Journal.create ~capacity:8 () in
  Journal.record src (mark 4);
  Journal.record src (mark 5);
  for i = 1 to 3 do
    Journal.record j (mark i)
  done;
  Journal.append j src;
  let expected = List.init 5 (fun i -> mark (i + 1)) in
  check_bool "first tap: every event, in order" true
    (List.rev !seen_a = expected);
  check_bool "second tap: every event, in order" true
    (List.rev !seen_b = expected);
  check_int "ring kept only the newest" 2 (Journal.length j)

(* --- determinism across --jobs ------------------------------------- *)

let sweep_lines ~jobs =
  let j = Journal.create () in
  ignore
    (Exp_common.run_sweep ~runs:2 ~seed:7L ~duration:(Time_ns.sec 2) ~jobs
       ~journal:j
       [
         (Exp_common.fig7_double, Protocols.domino_default);
         (Exp_common.fig7_double, Protocols.Multi_paxos);
       ]);
  check_int "no ring overflow" 0 (Journal.dropped j);
  Journal.to_lines j

let test_jobs_byte_identical () =
  let a = sweep_lines ~jobs:1 in
  let b = sweep_lines ~jobs:4 in
  check_bool "journal non-trivial" true (String.length a > 10_000);
  check_bool "has the sweep marks" true (contains a "mark cell=1 run=1");
  check_int "same size" (String.length a) (String.length b);
  Alcotest.(check string)
    "byte-identical digests"
    (Digest.to_hex (Digest.string a))
    (Digest.to_hex (Digest.string b))

let sweep_timeline_csv ~jobs =
  let tl = Timeline.create () in
  ignore
    (Exp_common.run_sweep ~runs:2 ~seed:7L ~duration:(Time_ns.sec 2) ~jobs
       ~timeline:tl
       [
         (Exp_common.fig7_double, Protocols.domino_default);
         (Exp_common.fig7_double, Protocols.Multi_paxos);
       ]);
  let t = Timeline.finish tl in
  Timeline.to_csv ~per_node:true t ^ Timeline.gauges_to_csv t

let test_timeline_jobs_byte_identical () =
  (* The merged timeline rides the same determinism contract as the
     merged journal: per-task collectors absorbed in task order. *)
  let a = sweep_timeline_csv ~jobs:1 in
  let b = sweep_timeline_csv ~jobs:4 in
  check_bool "timeline non-trivial" true (String.length a > 1_000);
  check_bool "labeled by sweep cell" true (contains a "cell=1 run=1");
  Alcotest.(check string) "timeline CSV byte-identical" a b

(* --- tiers ------------------------------------------------------------ *)

(* A journal records a detail event only if something reads it. One
   faulted run three ways: a full ring, a one-slot ring fed only to the
   timeline, and a one-slot ring with the [--trace-op] tap. *)
let tiered_run ?(trace = false) ~capacity () =
  let plan =
    match
      Domino_fault.Plan.parse "at 500ms crash node=2\nat 1s recover node=2\n"
    with
    | Ok p -> p
    | Error e -> Alcotest.fail e
  in
  let j = Journal.create ~capacity () in
  if trace then Provenance.attach (Provenance.focus 0) j;
  let outline = ref 0 and detail = ref 0 in
  Journal.add_tap ~reads:Outline j (fun ev ->
      match Journal.tier ev with
      | Outline -> incr outline
      | Detail -> incr detail);
  ignore
    (Exp_common.run ~seed:5L ~duration:(Time_ns.sec 2) ~journal:j
       ~timeline:(Timeline.create ()) ~faults:plan Exp_common.fig7_double
       Protocols.domino_default);
  (Journal.recorded j, !outline, !detail)

let test_tiers () =
  let full, full_outline, full_detail = tiered_run ~capacity:(1 lsl 20) () in
  check_bool "a full ring records detail events" true (full_detail > 0);
  check_int "a full ring records every event" full
    (full_outline + full_detail);
  let thin, thin_outline, thin_detail = tiered_run ~capacity:1 () in
  check_int "timeline-only ring: no detail event" 0 thin_detail;
  check_int "timeline-only ring: the whole outline" full_outline thin_outline;
  check_int "timeline-only ring: recorded = outline" full_outline thin;
  let traced, _, traced_detail = tiered_run ~trace:true ~capacity:1 () in
  check_int "trace tap: every event" full traced;
  check_int "trace tap: every detail event" full_detail traced_detail

(* --- recorder hooks end to end ------------------------------------- *)

let journaled_run proto =
  let j = Journal.create () in
  let r =
    Exp_common.run ~seed:11L ~duration:(Time_ns.sec 3) ~journal:j
      Exp_common.fig7_double proto
  in
  (j, r)

let count j pred =
  let n = ref 0 in
  Journal.iter j (fun ev -> if pred ev then incr n);
  !n

let test_event_stream_complete () =
  let j, _ = journaled_run Protocols.domino_default in
  let is = function
    | Journal.Submit _ -> "submit"
    | Journal.Commit _ -> "commit"
    | Journal.Msg_sent _ -> "sent"
    | Journal.Msg_delivered _ -> "delivered"
    | Journal.Timer_fired _ -> "timer"
    | Journal.Sample _ -> "sample"
    | Journal.Phase _ -> "phase"
    | _ -> "other"
  in
  List.iter
    (fun kind ->
      check_bool ("journal has " ^ kind ^ " events") true
        (count j (fun ev -> is ev = kind) > 0))
    [ "submit"; "commit"; "sent"; "delivered"; "timer"; "sample"; "phase" ]

let test_sampler_cadence () =
  (* 3 s at the default 100 ms cadence: each probe sampled ~30 times,
     and every registered probe appears. *)
  let j, _ = journaled_run Protocols.domino_default in
  let names = Hashtbl.create 8 in
  Journal.iter j (function
    | Journal.Sample { name; _ } ->
      Hashtbl.replace names name (1 + Option.value ~default:0 (Hashtbl.find_opt names name))
    | _ -> ());
  List.iter
    (fun name ->
      let n = Option.value ~default:0 (Hashtbl.find_opt names name) in
      check_bool (name ^ " sampled repeatedly") true (n >= 10))
    [
      "engine.pending";
      "run.inflight_ops";
      "net.inflight_msgs";
      "proto.estimator_err_ms";
    ]

(* --- provenance ---------------------------------------------------- *)

let protocols =
  [
    ("domino", Protocols.domino_default);
    ("mencius", Protocols.Mencius);
    ("epaxos", Protocols.Epaxos);
    ("multipaxos", Protocols.Multi_paxos);
    ("fastpaxos", Protocols.Fast_paxos);
  ]

let test_provenance_tiles_latency () =
  List.iter
    (fun (name, proto) ->
      let _, r = journaled_run proto in
      let bs = r.Domino_shard.Fabric.provenance in
      check_bool (name ^ ": some ops analyzed") true (List.length bs > 10);
      List.iter
        (fun b ->
          let gap = abs (Provenance.total b - Provenance.latency b) in
          if gap > 1 then
            Alcotest.failf "%s: op %d#%d components sum to %d, latency %d" name
              (fst b.Provenance.op) (snd b.Provenance.op) (Provenance.total b)
              (Provenance.latency b))
        bs;
      (* Something other than pure queueing must appear on the wire. *)
      let transit =
        List.fold_left
          (fun acc b ->
            List.fold_left
              (fun acc (c, d) ->
                match c with
                | Provenance.Request_transit | Provenance.Quorum_transit
                | Provenance.Reply_transit ->
                  acc + d
                | _ -> acc)
              acc b.Provenance.parts)
          0 bs
      in
      check_bool (name ^ ": wire time observed") true (transit > 0))
    protocols

let test_provenance_in_metrics () =
  let _, r = journaled_run Protocols.Multi_paxos in
  let m = r.Domino_shard.Fabric.metrics in
  (match Metrics.find_counter m "prov.ops" with
  | None -> Alcotest.fail "prov.ops counter missing"
  | Some c ->
    check_int "one breakdown per op"
      (List.length r.Domino_shard.Fabric.provenance)
      (Metrics.counter_value c));
  List.iter
    (fun comp ->
      let key = "prov." ^ Provenance.component_name comp ^ "_ms" in
      check_bool (key ^ " registered") true (Metrics.find_histogram m key <> None))
    Provenance.components

(* Reference [analyze]: the straightforward version, which folds over
   every phase span at a node for each resident interval. Quadratic in
   run length, so only tests use it, as the oracle the indexed
   [Provenance.analyze] must match exactly. *)
let reference_analyze j =
  let evs = Journal.to_array j in
  let submits : (Journal.opid, int) Hashtbl.t = Hashtbl.create 1024 in
  let sent_of_seq : (int, int) Hashtbl.t = Hashtbl.create 4096 in
  let dels_acc : (int, int list ref) Hashtbl.t = Hashtbl.create 64 in
  let sched = Hashtbl.create 64 and syncs = Hashtbl.create 64 in
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
        -> add_span sched node (op, at, Time_ns.add at dur)
      | Journal.Phase { node; op; name = "sync_wait"; dur; at } when dur > 0 ->
        add_span syncs node (op, at, Time_ns.add at dur)
      | _ -> ())
    evs;
  let dels = Hashtbl.create 64 in
  Hashtbl.iter
    (fun node l -> Hashtbl.add dels node (Array.of_list (List.rev !l)))
    dels_acc;
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
  let seen_commit = Hashtbl.create 1024 in
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
          let hops = ref [] in
          let overlap_in tbl node lo hi =
            match Hashtbl.find_opt tbl node with
            | None -> 0
            | Some spans ->
              List.fold_left
                (fun acc (sop, s0, s1) ->
                  let applies =
                    match sop with None -> true | Some o -> o = op
                  in
                  if applies then
                    let o0 = Stdlib.max lo s0 and o1 = Stdlib.min hi s1 in
                    acc + Stdlib.max 0 (Time_ns.diff o1 o0)
                  else acc)
                0 !spans
          in
          let add_resident node lo hi =
            let d = Time_ns.diff hi lo in
            if d > 0 then
              if node = submit_node then client_wait := !client_wait + d
              else begin
                let sched_overlap = Stdlib.min (overlap_in sched node lo hi) d in
                let sync_overlap =
                  Stdlib.min (overlap_in syncs node lo hi) (d - sched_overlap)
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
              (Provenance.Client_wait, !client_wait);
              (Provenance.Request_transit, !request_t);
              (Provenance.Node_wait, !node_wait);
              (Provenance.Sched_wait, !sched_wait);
              (Provenance.Sync_wait, !sync_wait);
              (Provenance.Quorum_transit, !quorum_t);
              (Provenance.Reply_transit, !reply_t);
            ]
          in
          out :=
            {
              Provenance.op;
              submitted_at = at_s;
              committed_at = commit_at;
              parts;
            }
            :: !out
        end
      | _ -> ())
    evs;
  List.rev !out

(* Sum of one component over every breakdown. *)
let component_total bs comp =
  List.fold_left (fun acc b -> acc + List.assq comp b.Provenance.parts) 0 bs

let check_matches_reference name j =
  let want = reference_analyze j and got = Provenance.analyze j in
  check_int (name ^ ": same op count") (List.length want) (List.length got);
  List.iteri
    (fun i (w, g) ->
      if w <> g then
        Alcotest.failf "%s: breakdown %d (op %d#%d) differs from the reference"
          name i (fst w.Provenance.op) (snd w.Provenance.op))
    (List.combine want got);
  got

(* [sync_wait] spans at one node id that overlap each other: the case a
   disjoint-span index would get wrong. *)
let overlapping_sync_spans j =
  let spans = Hashtbl.create 16 in
  Journal.iter j (function
    | Journal.Phase { node; op = None; name = "sync_wait"; dur; at } when dur > 0
      ->
      Hashtbl.replace spans node
        ((at, at + dur) :: Option.value ~default:[] (Hashtbl.find_opt spans node))
    | _ -> ());
  Hashtbl.fold
    (fun _ l acc ->
      let sorted = List.sort compare l in
      let _, n =
        List.fold_left
          (fun (reach, n) (s0, s1) ->
            (Stdlib.max reach s1, if s0 < reach then n + 1 else n))
          (min_int, 0) sorted
      in
      acc + n)
    spans 0

(* A hand-built journal where node 0 carries two overlapping anonymous
   sync_wait spans, [0, 100 ms) and [10, 20 ms) — what aliased node ids
   in a multi-group journal produce. The critical path rests at node 0
   over [30, 60 ms): only the long span covers it, behind a later-starting
   short span that ends before the interval. A sched_wait span tagged
   with another op must not count. *)
let test_provenance_overlapping_spans () =
  let ms = Time_ns.ms in
  let op = (9, 0) in
  let phase node op name at dur = Journal.Phase { node; op; name; dur; at } in
  let sent seq src dst at =
    Journal.Msg_sent { seq; src; dst; cls = "m"; op = Some op; at }
  in
  let delivered seq src dst sent_at at =
    Journal.Msg_delivered
      { seq; src; dst; cls = "m"; op = Some op; sent_at; at }
  in
  let j = Journal.create () in
  List.iter (Journal.record j)
    [
      Journal.Submit { op; node = 9; key = 1; at = 0 };
      phase 0 None "sync_wait" 0 (ms 100);
      phase 0 None "sync_wait" (ms 10) (ms 10);
      sent 1 9 0 0;
      delivered 1 9 0 0 (ms 30);
      phase 0 (Some op) "sched_wait" (ms 30) (ms 5);
      phase 0 (Some (8, 0)) "sched_wait" (ms 30) (ms 40);
      sent 2 0 9 (ms 60);
      delivered 2 0 9 (ms 60) (ms 70);
      Journal.Commit { op; node = 9; at = ms 70 };
    ];
  match check_matches_reference "synthetic" j with
  | [ b ] ->
    Alcotest.(check (list (pair string int)))
      "parts"
      [
        ("client_wait", 0);
        ("request_transit", ms 30);
        ("node_wait", 0);
        ("sched_wait", ms 5);
        ("sync_wait", ms 25);
        ("quorum_transit", 0);
        ("reply_transit", ms 10);
      ]
      (List.map
         (fun (c, d) -> (Provenance.component_name c, d))
         b.Provenance.parts)
  | bs -> Alcotest.failf "expected one breakdown, got %d" (List.length bs)

let test_provenance_matches_reference () =
  List.iter
    (fun (name, proto) ->
      let j, _ = journaled_run proto in
      let bs = check_matches_reference name j in
      if name = "domino" then
        check_bool "domino: sched_wait attributed" true
          (component_total bs Provenance.Sched_wait > 0))
    protocols;
  (* Wipe-restarts cut the store's sync_wait spans at each new epoch. *)
  let wipe_plan =
    match Domino_fault.Plan.parse "at 1s wipe node=2\nat 2s wipe node=1\n" with
    | Ok p -> p
    | Error e -> Alcotest.failf "plan parse: %s" e
  in
  let j = Journal.create () in
  ignore
    (Exp_common.run ~seed:11L ~duration:(Time_ns.sec 3) ~journal:j
       ~faults:wipe_plan Exp_common.fig7_double Protocols.Multi_paxos);
  check_bool "wipe run recovered" true
    (count j (function Journal.Recovery _ -> true | _ -> false) > 0);
  let bs = check_matches_reference "wipe" j in
  check_bool "wipe: sync_wait attributed" true
    (component_total bs Provenance.Sync_wait > 0);
  (* Two groups share node ids, so their stores' barriers overlap. *)
  let j = Exp_shards.smoke_journal ~seed:11L () in
  check_bool "2-group journal has overlapping same-node sync_wait spans" true
    (overlapping_sync_spans j > 0);
  ignore (check_matches_reference "2-group fabric" j);
  (* A wrapped ring: the run's first submits and sends were overwritten,
     so the surviving message seqs start far above zero and some
     deliveries have lost their send. *)
  let ring_run capacity =
    let j = Journal.create ~capacity () in
    ignore
      (Exp_common.run ~seed:11L ~duration:(Time_ns.sec 3) ~journal:j
         Exp_common.fig7_double Protocols.domino_default);
    j
  in
  let j = ring_run 60_000 in
  check_bool "ring wrapped" true (Journal.dropped j > 0);
  let bs = check_matches_reference "wrapped ring" j in
  check_bool "wrapped ring: ops analyzed" true (bs <> []);
  (* The one-slot throwaway ring a timeline-only run records into. *)
  let j = ring_run 1 in
  check_int "one-slot ring holds one event" 1 (Journal.length j);
  ignore (check_matches_reference "one-slot ring" j)

(* --- perfetto export ----------------------------------------------- *)

let test_perfetto_export () =
  let j, _ = journaled_run Protocols.domino_default in
  let s = Perfetto.to_string j in
  check_bool "has traceEvents" true (contains s "\"traceEvents\":");
  check_bool "names the process" true (contains s "domino-sim");
  check_bool "has node tracks" true (contains s "\"node 0\"");
  check_bool "has slices" true (contains s "\"ph\":\"X\"");
  check_bool "has flow starts" true (contains s "\"ph\":\"s\"");
  check_bool "has flow ends" true (contains s "\"ph\":\"f\"");
  check_bool "has counters" true (contains s "\"ph\":\"C\"")

let () =
  Alcotest.run "journal"
    [
      ( "ring",
        [
          Alcotest.test_case "overwrite" `Quick test_ring_overwrite;
          Alcotest.test_case "sink" `Quick test_sink_disabled;
          Alcotest.test_case "append" `Quick test_append_order;
          Alcotest.test_case "taps compose" `Quick test_taps_compose;
          QCheck_alcotest.to_alcotest test_ring_grows;
        ] );
      ("tiers", [ Alcotest.test_case "who reads what" `Slow test_tiers ]);
      ( "determinism",
        [
          Alcotest.test_case "jobs 1 = jobs 4" `Slow test_jobs_byte_identical;
          Alcotest.test_case "timeline jobs 1 = jobs 4" `Slow
            test_timeline_jobs_byte_identical;
        ] );
      ( "recorder",
        [
          Alcotest.test_case "event stream" `Slow test_event_stream_complete;
          Alcotest.test_case "sampler" `Slow test_sampler_cadence;
        ] );
      ( "provenance",
        [
          Alcotest.test_case "tiles latency" `Slow test_provenance_tiles_latency;
          Alcotest.test_case "metrics" `Slow test_provenance_in_metrics;
          Alcotest.test_case "overlapping spans" `Quick
            test_provenance_overlapping_spans;
          Alcotest.test_case "matches reference" `Slow
            test_provenance_matches_reference;
        ] );
      ( "perfetto",
        [ Alcotest.test_case "export" `Slow test_perfetto_export ] );
    ]
