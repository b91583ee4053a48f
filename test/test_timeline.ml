(* Timeline tests: window bucketing semantics on synthetic event
   streams, the Clock cadence driver, the journal parser's round-trip
   contract (QCheck-pinned), online == offline timeline equality over
   real faulted runs (QCheck-pinned), dip/recovery arithmetic, the
   hot-shard detector on a synthetic skewed load, and the golden
   [analyze] CSVs for the recovery smoke journal. *)

open Domino_sim
open Domino_obs
open Domino_fault
open Domino_exp

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)
let check_str = Alcotest.(check string)
let check_f msg = Alcotest.(check (float 1e-9)) msg

let ms = Time_ns.ms

(* --- Clock ---------------------------------------------------------- *)

let test_clock_cadence () =
  let engine = Engine.create ~seed:1L () in
  let clock = Timeline.Clock.create engine ~window:(ms 50) in
  let seen = ref [] in
  Timeline.Clock.on_window clock (fun ~index ~now ->
      seen := (index, now) :: !seen);
  (* Callbacks registered later run after earlier ones, same window. *)
  let order_ok = ref true in
  Timeline.Clock.on_window clock (fun ~index ~now:_ ->
      match !seen with
      | (i, _) :: _ when i = index -> ()
      | _ -> order_ok := false);
  Engine.run ~until:(ms 220) engine;
  check_int "fired" 4 (Timeline.Clock.fired clock);
  check_bool "registration order" true !order_ok;
  Alcotest.(check (list (pair int int)))
    "window closes at index*w + w"
    [ (0, ms 50); (1, ms 100); (2, ms 150); (3, ms 200) ]
    (List.rev !seen);
  check_bool "rejects window <= 0" true
    (try
       ignore (Timeline.Clock.create engine ~window:0);
       false
     with Invalid_argument _ -> true)

(* --- windowing semantics on synthetic streams ----------------------- *)

let op i = (1, i)

let feed_all agg evs = List.iter (Timeline.feed agg) evs

let single_segment tl =
  match tl with
  | [ seg ] -> seg
  | _ -> Alcotest.failf "expected 1 segment, got %d" (List.length tl)

let test_window_bucketing () =
  let agg = Timeline.create ~window:(ms 100) () in
  feed_all agg
    [
      Journal.Submit { op = op 0; node = 9; key = 0; at = ms 10 };
      Journal.Commit { op = op 0; node = 9; at = ms 30 };
      Journal.Execute { op = op 0; replica = 2; at = ms 40 };
      Journal.Submit { op = op 1; node = 9; key = 1; at = ms 150 };
      Journal.Commit { op = op 1; node = 9; at = ms 360 };
    ];
  let seg = single_segment (Timeline.finish agg) in
  check_str "unmarked segment label" "" seg.Timeline.label;
  check_int "dense from window 0 to last activity" 4
    (Array.length seg.Timeline.cluster);
  let w = seg.Timeline.cluster in
  Array.iteri (fun i p -> check_int "index" i p.Timeline.index) w;
  check_int "w0 submits" 1 w.(0).Timeline.submits;
  check_int "w0 commits" 1 w.(0).Timeline.commits;
  check_int "w0 executes" 1 w.(0).Timeline.executes;
  check_f "w0 latency" 20. w.(0).Timeline.p50_ms;
  check_f "w0 p99 = p50 for one sample" 20. w.(0).Timeline.p99_ms;
  check_int "w0 inflight" 0 w.(0).Timeline.inflight;
  check_f "w0 rps" 10. (Timeline.rps ~window:seg.Timeline.window w.(0));
  check_int "w1 submits" 1 w.(1).Timeline.submits;
  check_int "w1 inflight" 1 w.(1).Timeline.inflight;
  check_bool "w1 empty latency is nan" true (Float.is_nan w.(1).Timeline.p50_ms);
  check_int "w2 idle" 0 w.(2).Timeline.submits;
  check_int "w2 inflight carries" 1 w.(2).Timeline.inflight;
  check_int "w3 commits" 1 w.(3).Timeline.commits;
  check_f "w3 latency spans windows" 210. w.(3).Timeline.p50_ms;
  check_int "w3 inflight drains" 0 w.(3).Timeline.inflight;
  check_f "window_start_ms" 300.
    (Timeline.window_start_ms ~window:seg.Timeline.window 3);
  (* Node scope: submits/commits at the client, executes at the replica. *)
  let node n =
    match
      Array.find_opt (fun (id, _) -> id = n) seg.Timeline.nodes
    with
    | Some (_, pts) -> pts
    | None -> Alcotest.failf "node %d missing" n
  in
  check_int "client node submits" 2
    (Array.fold_left (fun a p -> a + p.Timeline.submits) 0 (node 9));
  check_int "replica node executes" 1
    (Array.fold_left (fun a p -> a + p.Timeline.executes) 0 (node 2))

let test_duplicate_and_orphan_commits () =
  let agg = Timeline.create ~window:(ms 100) () in
  feed_all agg
    [
      Journal.Submit { op = op 0; node = 0; key = 0; at = ms 10 };
      Journal.Commit { op = op 0; node = 0; at = ms 20 };
      Journal.Commit { op = op 0; node = 0; at = ms 30 } (* duplicate *);
      Journal.Commit { op = op 7; node = 0; at = ms 40 } (* orphan *);
    ];
  let seg = single_segment (Timeline.finish agg) in
  let w0 = seg.Timeline.cluster.(0) in
  check_int "first commit + orphan, duplicate dropped" 2 w0.Timeline.commits;
  check_f "orphan contributes no latency" 10. w0.Timeline.p50_ms;
  check_int "inflight never negative" 0 w0.Timeline.inflight

let test_drops_syncs_faults () =
  let agg = Timeline.create ~window:(ms 100) () in
  feed_all agg
    [
      Journal.Msg_dropped
        { seq = 3; src = 0; dst = 2; cls = "m"; reason = "crash"; at = ms 10 };
      Journal.Store_sync
        { node = 2; recs = 3; upto = 5; dur_us = 80; at = ms 20 };
      Journal.Store_ev
        { node = 2; op = "append"; detail = "rec=6"; at = ms 25 } (* ignored *);
      Journal.Fault { name = "crash"; detail = "node=2"; at = ms 30 };
      Journal.Fault
        { name = "drop"; detail = "seq=9 n0>n2 reason=crash"; at = ms 35 };
      Journal.Recovery
        { node = 2; stage = "up"; detail = "replayed=4"; at = ms 90 };
    ];
  let seg = single_segment (Timeline.finish agg) in
  let w0 = seg.Timeline.cluster.(0) in
  check_int "drops counted at cluster" 1 w0.Timeline.drops;
  check_int "sync_writes sums recs=" 3 w0.Timeline.sync_writes;
  let n2 =
    match Array.find_opt (fun (id, _) -> id = 2) seg.Timeline.nodes with
    | Some (_, pts) -> pts.(0)
    | None -> Alcotest.fail "node 2 missing"
  in
  check_int "drops at the destination node" 1 n2.Timeline.drops;
  check_int "syncs at the storing node" 3 n2.Timeline.sync_writes;
  (* fault.drop lines duplicate Msg_dropped: lifecycle faults only. *)
  check_int "faults" 1 (Array.length seg.Timeline.faults);
  (match seg.Timeline.faults.(0) with
  | at, "crash", "node=2" -> check_int "fault at" (ms 30) at
  | _, k, d -> Alcotest.failf "unexpected fault %s %s" k d);
  check_int "recoveries" 1 (Array.length seg.Timeline.recoveries)

let test_mark_segmentation () =
  let agg = Timeline.create ~window:(ms 100) () in
  feed_all agg
    [
      Journal.Submit { op = op 0; node = 0; key = 0; at = ms 10 };
      Journal.Commit { op = op 0; node = 0; at = ms 20 };
      Journal.Mark { label = "cell=0 run=0"; at = ms 20 };
      Journal.Mark { label = "slots=hash:4 groups=2"; at = Time_ns.zero };
      Journal.Submit { op = op 1; node = 0; key = 0; at = ms 10 };
      Journal.Commit { op = op 1; node = 0; at = ms 20 };
    ];
  match Timeline.finish agg with
  | [ a; b ] ->
    check_str "first segment unlabeled" "" a.Timeline.label;
    check_str "consecutive marks: first label wins" "cell=0 run=0"
      b.Timeline.label;
    check_int "ops split across segments" 1 a.Timeline.cluster.(0).Timeline.commits;
    check_int "second segment restarts" 1 b.Timeline.cluster.(0).Timeline.commits
  | tl -> Alcotest.failf "expected 2 segments, got %d" (List.length tl)

let test_group_attribution () =
  let agg =
    Timeline.create ~window:(ms 100)
      ~group_resolver:Domino_shard.Slots.resolver_of_mark ()
  in
  feed_all agg
    [
      Journal.Mark { label = "slots=hash:8 groups=2"; at = Time_ns.zero };
      Journal.Submit { op = op 0; node = 0; key = 0; at = ms 10 };
      Journal.Commit { op = op 0; node = 0; at = ms 30 };
      Journal.Submit { op = op 1; node = 0; key = 1; at = ms 40 };
      Journal.Commit { op = op 1; node = 0; at = ms 60 };
      Journal.Execute { op = op 1; replica = 3; at = ms 70 };
    ];
  let seg = single_segment (Timeline.finish agg) in
  check_int "both groups present" 2 (Array.length seg.Timeline.groups);
  let total field =
    Array.fold_left
      (fun a (_, pts) -> Array.fold_left (fun a p -> a + field p) a pts)
      0 seg.Timeline.groups
  in
  check_int "every commit attributed" 2 (total (fun p -> p.Timeline.commits));
  check_int "executes attributed via the op's group" 1
    (total (fun p -> p.Timeline.executes));
  (* The same resolver the offline path uses must agree with a direct map. *)
  match Domino_shard.Slots.resolver_of_mark "slots=hash:8 groups=2" with
  | None -> Alcotest.fail "resolver rejected its own mark"
  | Some gm ->
    check_int "resolver group count" 2 gm.Timeline.groups;
    for key = 0 to 63 do
      check_bool "resolver in range" true
        (gm.Timeline.lookup key >= 0 && gm.Timeline.lookup key < gm.Timeline.groups)
    done

let test_gauges () =
  let agg = Timeline.create ~window:(ms 100) () in
  feed_all agg
    [
      Journal.Sample { name = "x"; value = 1.; at = ms 10 };
      Journal.Sample { name = "x"; value = 3.; at = ms 90 };
      Journal.Sample { name = "x"; value = 7.; at = ms 250 };
      Journal.Submit { op = op 0; node = 0; key = 0; at = ms 260 };
    ];
  let seg = single_segment (Timeline.finish agg) in
  match seg.Timeline.gauges with
  | [| ("x", pts) |] ->
    check_int "sparse: only sampled windows" 2 (Array.length pts);
    check_int "gauge w0" 0 pts.(0).Timeline.g_index;
    check_f "gauge mean" 2. pts.(0).Timeline.mean;
    check_f "gauge last" 3. pts.(0).Timeline.last;
    check_int "gauge w2" 2 pts.(1).Timeline.g_index
  | _ -> Alcotest.fail "expected one gauge"

(* --- journal parser round-trip (QCheck) ----------------------------- *)

let tok_gen =
  QCheck.Gen.(
    map (String.concat "")
      (list_size (int_range 1 6)
         (frequency
            [
              (20, map (String.make 1) (char_range 'a' 'z'));
              (3, return ".");
              (2, return "=");
              (1, return "_");
            ])))

(* Free-form trailing fields (mark labels, fault/store/recovery
   details) may contain internal spaces but the line format cannot
   survive leading/trailing/double spaces — the emitters never produce
   them. *)
let detail_gen =
  QCheck.Gen.(map (String.concat " ") (list_size (int_range 1 4) tok_gen))

(* Details the emitters may leave empty. *)
let opt_detail_gen = QCheck.Gen.(oneof [ return ""; detail_gen ])

(* Mostly plausible values, but also negatives and both extremes: the
   writer renders digits itself, so every sign and width must come out
   as [%d] would write it, and parse back. *)
let int_gen =
  QCheck.Gen.(
    frequency
      [
        (8, int_range 0 99_999);
        (2, int_range (-99_999) (-1));
        (1, return min_int);
        (1, return max_int);
        (1, int);
      ])

let time_gen =
  QCheck.Gen.(
    frequency [ (4, map Time_ns.ms (int_range 0 50_000)); (1, int_gen) ])

let opid_gen = QCheck.Gen.(pair int_gen int_gen)
let opt_opid_gen = QCheck.Gen.(opt opid_gen)
let node_gen = int_gen

let event_gen : Journal.event QCheck.Gen.t =
  QCheck.Gen.(
    oneof
      [
        map3
          (fun op node (key, at) -> Journal.Submit { op; node; key; at })
          opid_gen node_gen
          (pair int_gen time_gen);
        map3
          (fun op node at -> Journal.Commit { op; node; at })
          opid_gen node_gen time_gen;
        map3
          (fun op replica at -> Journal.Execute { op; replica; at })
          opid_gen node_gen time_gen;
        map3
          (fun (seq, src, dst) (cls, op) at ->
            Journal.Msg_sent { seq; src; dst; cls; op; at })
          (triple int_gen node_gen node_gen)
          (pair tok_gen opt_opid_gen)
          time_gen;
        map3
          (fun (seq, src, dst) (cls, op) (sent_at, at) ->
            Journal.Msg_delivered { seq; src; dst; cls; op; sent_at; at })
          (triple int_gen node_gen node_gen)
          (pair tok_gen opt_opid_gen)
          (pair time_gen time_gen);
        map3
          (fun (seq, src, dst) (cls, reason) at ->
            Journal.Msg_dropped { seq; src; dst; cls; reason; at })
          (triple int_gen node_gen node_gen)
          (pair tok_gen tok_gen) time_gen;
        map (fun at -> Journal.Timer_fired { at }) time_gen;
        map3
          (fun (node, op) (name, dur) at ->
            Journal.Phase { node; op; name; dur; at })
          (pair node_gen opt_opid_gen)
          (pair tok_gen (oneof [ map Time_ns.ms (int_range 0 5_000); int_gen ]))
          time_gen;
        map3
          (fun name value at -> Journal.Sample { name; value; at })
          tok_gen
          (oneof [ float_range (-1e6) 1e6; return 0.; return 1e-3 ])
          time_gen;
        map2
          (fun label at -> Journal.Mark { label; at })
          opt_detail_gen time_gen;
        map3
          (fun name detail at -> Journal.Fault { name; detail; at })
          tok_gen opt_detail_gen time_gen;
        map3
          (fun (node, op) detail at -> Journal.Store_ev { node; op; detail; at })
          (pair node_gen tok_gen) opt_detail_gen time_gen;
        map3
          (fun (node, recs) (upto, dur_us) at ->
            Journal.Store_sync { node; recs; upto; dur_us; at })
          (pair node_gen int_gen) (pair int_gen int_gen) time_gen;
        map3
          (fun (node, stage) detail at ->
            Journal.Recovery { node; stage; detail; at })
          (pair node_gen tok_gen) opt_detail_gen time_gen;
        map3
          (fun (stage, slot) (from_g, to_g, epoch) (detail, at) ->
            Journal.Migrate { stage; slot; from_g; to_g; epoch; detail; at })
          (pair tok_gen int_gen)
          (triple int_gen int_gen int_gen)
          (pair opt_detail_gen time_gen);
        map3
          (fun (stage, group) epoch (detail, at) ->
            Journal.Reconfig { stage; group; epoch; detail; at })
          (pair tok_gen int_gen) int_gen
          (pair opt_detail_gen time_gen);
      ])

let render ev =
  let b = Buffer.create 64 in
  Journal.pp_event b ev;
  Buffer.contents b

let test_parse_roundtrip =
  QCheck.Test.make ~name:"pp_event -> parse_line -> pp_event is identity"
    ~count:2_000
    (QCheck.make ~print:render event_gen)
    (fun ev ->
      let line = render ev in
      match Journal.parse_line line with
      | Error e -> QCheck.Test.fail_reportf "%s: %s" line e
      | Ok ev' ->
        let line' = render ev' in
        if line <> line' then
          QCheck.Test.fail_reportf "re-render mismatch:\n%s\n%s" line line';
        true)

let reference_render ev =
  let b = Buffer.create 64 in
  Reference_pp.pp_event b ev;
  Buffer.contents b

let test_writer_matches_reference =
  QCheck.Test.make ~name:"pp_event writes the Printf reference's bytes"
    ~count:2_000
    (QCheck.make ~print:reference_render event_gen)
    (fun ev ->
      let line = render ev and expected = reference_render ev in
      if line <> expected then
        QCheck.Test.fail_reportf "writer:    %s\nreference: %s" line expected;
      true)

let test_to_lines_matches_reference =
  QCheck.Test.make ~name:"to_lines writes the Printf reference's bytes"
    ~count:200
    (QCheck.make
       ~print:(fun evs -> String.concat "\n" (List.map reference_render evs))
       QCheck.Gen.(list_size (int_range 0 40) event_gen))
    (fun evs ->
      let j = Journal.create ~capacity:(max 1 (List.length evs)) () in
      List.iter (Journal.record j) evs;
      Journal.to_lines j = Reference_pp.to_lines j)

let test_of_lines_real_journal () =
  (* A faulted run covers every event class, including store.* and
     recovery.*: the rendered journal must survive a full parse and
     re-render byte-for-byte. *)
  let plan =
    match Plan.parse "at 1s crash node=2\nat 2s wipe node=2\n" with
    | Ok p -> p
    | Error e -> Alcotest.fail e
  in
  let j = Journal.create () in
  let _ =
    Exp_common.run ~seed:3L ~rate:100. ~duration:(Time_ns.sec 3) ~journal:j
      ~faults:plan Exp_common.fig7_double Protocols.domino_default
  in
  let lines = Journal.to_lines j in
  match Journal.of_lines lines with
  | Error e -> Alcotest.fail e
  | Ok j' ->
    check_int "same event count" (Journal.length j) (Journal.length j');
    check_str "byte-identical re-render" (Digest.to_hex (Digest.string lines))
      (Digest.to_hex (Digest.string (Journal.to_lines j')))

let test_of_lines_errors () =
  (match Journal.of_lines "@0 mark ok\nnot a line\n" with
  | Error e -> check_bool "error names line 2" true (String.length e > 0 &&
      (try String.sub e 0 7 = "line 2:" with Invalid_argument _ -> false))
  | Ok _ -> Alcotest.fail "garbage accepted");
  match Journal.of_lines "\n@5 timer\n\n" with
  | Ok j -> check_int "blank lines skipped" 1 (Journal.length j)
  | Error e -> Alcotest.fail e

(* --- online == offline (QCheck) ------------------------------------- *)

let protocols =
  [|
    Protocols.domino_default;
    Protocols.Mencius;
    Protocols.Epaxos;
    Protocols.Multi_paxos;
    Protocols.Fast_paxos;
  |]

let plans =
  [|
    None;
    Some "at 800ms crash node=0\nat 1600ms recover node=0\n";
    Some "at 800ms crash node=2\nat 1500ms wipe node=2\n";
  |]

let timeline_bytes tl =
  Timeline.to_csv ~per_node:true tl
  ^ "\n--\n" ^ Timeline.gauges_to_csv tl
  ^ "\n--\n"
  ^ Domino_stats.Json.to_string (Timeline.to_json tl)

let test_online_eq_offline =
  QCheck.Test.make ~name:"online tap == offline journal replay" ~count:8
    (QCheck.make
       ~print:(fun (seed, p, pl) ->
         Printf.sprintf "seed=%d proto=%d plan=%d" seed p pl)
       QCheck.Gen.(
         triple (int_range 1 1000)
           (int_range 0 (Array.length protocols - 1))
           (int_range 0 (Array.length plans - 1))))
    (fun (seed, pi, pli) ->
      let faults =
        Option.map
          (fun text ->
            match Plan.parse text with
            | Ok p -> p
            | Error e -> failwith e)
          plans.(pli)
      in
      let online ?journal () =
        let agg = Timeline.create () in
        let _ =
          Exp_common.run ~seed:(Int64.of_int seed) ~rate:100.
            ~duration:(Time_ns.sec 2) ?journal ~timeline:agg ?faults
            Exp_common.fig7_double protocols.(pi)
        in
        timeline_bytes (Timeline.finish agg)
      in
      let j = Journal.create () in
      let a = online ~journal:j () in
      if Journal.dropped j > 0 then QCheck.Test.fail_report "ring overflow";
      let b = timeline_bytes (Timeline.of_journal j) in
      if a <> b then QCheck.Test.fail_report "online and offline diverge";
      (* Timeline-only runs: the fabric's own throwaway ring, and the
         one-slot ring perfbench passes in. Neither keeps the journal,
         yet each must see every event the timeline reads. *)
      if online () <> a then
        QCheck.Test.fail_report "timeline-only run diverges";
      if online ~journal:(Journal.create ~capacity:1 ()) () <> a then
        QCheck.Test.fail_report "one-slot ring diverges";
      true)

(* The shape of the benchmark's faulted workload, shortened: two Domino
   groups on NA range slots with Domino's client retry armed, a slot
   migration and a wipe. A timeline-only run must give the CSV and dip
   reports that offline replay of the same seed's full journal gives. *)
let ops_faults_timeline ?journal () =
  let faults =
    match
      Plan.parse "at 1500ms migrate slot=0 from=0 to=1\nat 3s wipe node=2\n"
    with
    | Ok p -> p
    | Error e -> Alcotest.fail e
  in
  let s = Exp_common.na3 and proto = Protocols.domino_default in
  let leaders =
    Domino_shard.Placement.spread_leaders s.Exp_common.topo
      ~replica_dcs:s.Exp_common.replica_dcs ~client_dcs:s.Exp_common.client_dcs
      ~groups:2
  in
  let config =
    {
      Domino_shard.Fabric.topo = s.Exp_common.topo;
      client_dcs = s.Exp_common.client_dcs;
      groups =
        Array.map
          (fun leader ->
            {
              Domino_shard.Fabric.replica_dcs = s.Exp_common.replica_dcs;
              leader;
              protocol = Protocols.resolve proto;
              params = Protocols.params_under_faults proto;
            })
          leaders;
      slots = Domino_shard.Slots.Range { slots = 16; keys = 1_000_000 };
    }
  in
  let agg =
    Timeline.create ~group_resolver:Domino_shard.Slots.resolver_of_mark ()
  in
  ignore
    (Domino_shard.Fabric.run ~seed:42L ~duration:(Time_ns.sec 5) ?journal
       ~timeline:agg ~faults config);
  Timeline.finish agg

let test_ops_faults_timeline_only () =
  let j = Journal.create () in
  ignore (ops_faults_timeline ~journal:j ());
  check_int "full journal fits the ring" 0 (Journal.dropped j);
  let offline =
    Timeline.of_journal ~group_resolver:Domino_shard.Slots.resolver_of_mark j
  in
  let online = ops_faults_timeline () in
  let csv tl = Timeline.to_csv ~per_node:true tl in
  let dips tl = Dip.to_csv (Dip.analyze tl) in
  check_bool "the run migrates and wipes" true
    (List.length (Dip.analyze offline) >= 2);
  check_str "timeline-only CSV = offline replay" (csv offline) (csv online);
  check_str "timeline-only dips = offline replay" (dips offline) (dips online)

(* --- dip arithmetic -------------------------------------------------- *)

let pt ?(lat = nan) index commits =
  {
    Timeline.index;
    submits = commits;
    commits;
    executes = commits;
    drops = 0;
    sync_writes = 0;
    inflight = 0;
    p50_ms = lat;
    p99_ms = lat;
  }

let synthetic_segment () =
  (* 100 rps baseline for 10 windows, crash at 1s, outage (0, 2 rps),
     recovery ramp at 90 rps from window 13 on, heal event at 1.35s. *)
  let cluster =
    Array.init 16 (fun i ->
        if i < 10 then pt ~lat:10. i 10
        else if i = 10 then pt ~lat:50. i 0
        else if i = 11 then pt ~lat:80. i 2
        else if i = 12 then pt ~lat:30. i 8
        else pt ~lat:12. i 9)
  in
  {
    Timeline.label = "syn";
    window = ms 100;
    cluster;
    groups = [||];
    nodes = [||];
    gauges = [||];
    faults = [| (Time_ns.sec 1, "crash", "node=0") |];
    recoveries = [||];
  }

let test_dip_analysis () =
  let seg = synthetic_segment () in
  let heal =
    { seg with
      Timeline.faults =
        Array.append seg.Timeline.faults
          [| (ms 1350, "recover", "node=0") |] }
  in
  match Dip.analyze [ heal ] with
  | [ r ] ->
    check_str "fault kind" "crash" r.Dip.fault;
    check_f "at" 1000. r.Dip.at_ms;
    check_f "heal matched by node" 1350. r.Dip.heal_ms;
    check_f "baseline over the lookback" 100. r.Dip.baseline_rps;
    check_f "dip floor" 0. r.Dip.dip_rps;
    check_f "dip depth" 100. r.Dip.dip_pct;
    (* windows 13,14 are the first consecutive pair >= 90 rps:
       recovered at window 13's close = 1400 ms. *)
    check_f "recovered at" 1400. r.Dip.recovered_ms;
    check_f "ttr" 400. r.Dip.ttr_ms;
    check_f "p99 baseline" 10. r.Dip.p99_base_ms;
    check_f "p99 spike" 80. r.Dip.p99_spike_ms
  | rs -> Alcotest.failf "expected 1 report, got %d" (List.length rs)

let test_dip_never_recovers () =
  let seg = synthetic_segment () in
  let dead =
    { seg with
      Timeline.cluster =
        Array.mapi
          (fun i p -> if i >= 10 then pt i 0 else p)
          seg.Timeline.cluster }
  in
  match Dip.analyze [ dead ] with
  | [ r ] ->
    check_bool "no heal" true (Float.is_nan r.Dip.heal_ms);
    check_bool "never recovered" true (Float.is_nan r.Dip.recovered_ms);
    check_bool "ttr nan" true (Float.is_nan r.Dip.ttr_ms);
    check_f "dip" 0. r.Dip.dip_rps
  | rs -> Alcotest.failf "expected 1 report, got %d" (List.length rs)

(* --- hot-shard detector on the shared clock ------------------------- *)

let test_hotspot_synthetic () =
  let engine = Engine.create ~seed:1L () in
  let clock = Timeline.Clock.create engine ~window:(ms 100) in
  let loads = [| 0.; 0.; 0. |] in
  let j = Journal.create () in
  let hs =
    Domino_shard.Hotspot.create clock ~groups:3 ~factor:2.
      ~loads:(fun () -> Array.copy loads)
      ~journal:(Journal.sink j) ()
  in
  (* Group 1 takes 80% of each window's load: flagged every window. *)
  ignore
    (Engine.every engine ~interval:(ms 10) (fun () ->
         loads.(0) <- loads.(0) +. 1.;
         loads.(1) <- loads.(1) +. 8.;
         loads.(2) <- loads.(2) +. 1.));
  Engine.run ~until:(ms 510) engine;
  check_int "windows evaluated" 5 (Domino_shard.Hotspot.checks hs);
  check_int "hottest" 1 (Domino_shard.Hotspot.hottest hs);
  check_f "probe mirrors hottest" 1. (Domino_shard.Hotspot.probe hs ());
  let flags = Domino_shard.Hotspot.flags hs in
  check_int "cold groups never flagged" 0 (flags.(0) + flags.(2));
  check_int "hot group flagged every window" 5 flags.(1);
  let samples = ref 0 in
  Journal.iter j (function
    | Journal.Sample { name = "fabric.hot.g1"; _ } -> incr samples
    | _ -> ());
  check_int "flags journaled" 5 !samples

(* Hysteresis: every hot window is still counted and journaled, but the
   [on_hot] hook — what turns detection into a migration — only fires
   once a group has stayed hot for two consecutive windows, and a cold
   window resets the streak. *)
let test_hotspot_hysteresis () =
  let engine = Engine.create ~seed:1L () in
  let clock = Timeline.Clock.create engine ~window:(ms 100) in
  let loads = [| 0.; 0. |] in
  let fired = ref 0 in
  ignore
    (Domino_shard.Hotspot.create clock ~groups:2 ~factor:1.5
       ~loads:(fun () -> Array.copy loads)
       ~on_hot:(fun ~g ->
         check_int "only the hot group fires" 1 g;
         incr fired)
       ~journal:Journal.null ());
  (* Window pattern for group 1: hot hot hot cold hot hot. on_hot fires
     in windows 2, 3, and 6 — never on the first window of a streak. *)
  let burst ~at ~hot =
    Engine.schedule_at engine ~at (fun () ->
        loads.(0) <- loads.(0) +. 1.;
        loads.(1) <- loads.(1) +. (if hot then 8. else 1.))
  in
  List.iteri
    (fun i hot -> burst ~at:(ms ((100 * i) + 50)) ~hot)
    [ true; true; true; false; true; true ];
  Engine.run ~until:(ms 610) engine;
  check_int "hook fired only after consecutive hot windows" 3 !fired

(* --- golden analyze CSVs -------------------------------------------- *)

let read_file path =
  let ic = open_in_bin path in
  let s = really_input_string ic (in_channel_length ic) in
  close_in ic;
  s

let recovery_smoke_timeline () =
  let j = Exp_recovery.smoke_journal ~seed:42L () in
  check_int "smoke journal fits the ring" 0 (Journal.dropped j);
  Timeline.of_journal ~group_resolver:Domino_shard.Slots.resolver_of_mark j

let test_golden_timeline_csv () =
  let tl = recovery_smoke_timeline () in
  check_str "analyze timeline CSV matches golden"
    (read_file "golden/recovery-smoke.timeline.csv")
    (Timeline.to_csv tl)

let test_golden_dips_csv () =
  let tl = recovery_smoke_timeline () in
  check_str "analyze dips CSV matches golden"
    (read_file "golden/recovery-smoke.dips.csv")
    (Dip.to_csv (Dip.analyze tl))

(* The migration counterpart: the rebalance smoke's offline replay,
   pinning window attribution across a mid-run epoch bump and the
   migrate dip report format. Shared lazily: one 2-group run feeds
   both goldens. *)
let rebalance_smoke_timeline =
  lazy
    (let j = Exp_rebalance.smoke_journal ~seed:42L () in
     check_int "rebalance smoke journal fits the ring" 0 (Journal.dropped j);
     Timeline.of_journal ~group_resolver:Domino_shard.Slots.resolver_of_mark j)

let test_golden_rebalance_timeline_csv () =
  check_str "rebalance timeline CSV matches golden"
    (read_file "golden/rebalance-smoke.timeline.csv")
    (Timeline.to_csv (Lazy.force rebalance_smoke_timeline))

let test_golden_rebalance_dips_csv () =
  check_str "rebalance dips CSV matches golden"
    (read_file "golden/rebalance-smoke.dips.csv")
    (Dip.to_csv (Dip.analyze (Lazy.force rebalance_smoke_timeline)))

let () =
  let q = QCheck_alcotest.to_alcotest in
  Alcotest.run "timeline"
    [
      ( "clock",
        [ Alcotest.test_case "cadence" `Quick test_clock_cadence ] );
      ( "windowing",
        [
          Alcotest.test_case "bucketing" `Quick test_window_bucketing;
          Alcotest.test_case "dup/orphan commits" `Quick
            test_duplicate_and_orphan_commits;
          Alcotest.test_case "drops, syncs, faults" `Quick
            test_drops_syncs_faults;
          Alcotest.test_case "mark segmentation" `Quick test_mark_segmentation;
          Alcotest.test_case "group attribution" `Quick test_group_attribution;
          Alcotest.test_case "gauges" `Quick test_gauges;
        ] );
      ( "parser",
        [
          q test_parse_roundtrip;
          q test_writer_matches_reference;
          q test_to_lines_matches_reference;
          Alcotest.test_case "real journal round-trip" `Slow
            test_of_lines_real_journal;
          Alcotest.test_case "errors and blanks" `Quick test_of_lines_errors;
        ] );
      ( "online=offline",
        [
          q test_online_eq_offline;
          Alcotest.test_case "timeline-only ops faults" `Slow
            test_ops_faults_timeline_only;
        ] );
      ( "dips",
        [
          Alcotest.test_case "crash and recover" `Quick test_dip_analysis;
          Alcotest.test_case "never recovers" `Quick test_dip_never_recovers;
        ] );
      ( "hotspot",
        [
          Alcotest.test_case "synthetic skew" `Quick test_hotspot_synthetic;
          Alcotest.test_case "hysteresis" `Quick test_hotspot_hysteresis;
        ] );
      ( "golden",
        [
          Alcotest.test_case "timeline CSV" `Slow test_golden_timeline_csv;
          Alcotest.test_case "dips CSV" `Slow test_golden_dips_csv;
          Alcotest.test_case "rebalance timeline CSV" `Slow
            test_golden_rebalance_timeline_csv;
          Alcotest.test_case "rebalance dips CSV" `Slow
            test_golden_rebalance_dips_csv;
        ] );
    ]
