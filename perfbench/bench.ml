type metric = { name : string; value : float; unit : string }

type outcome = {
  errors : string list;
  attempted : int;
  failed : int;
  metrics : metric list;
  notes : metric list;
  figures : (string * float) list;
  first : (string * float) list;
}

let end_to_end_units =
  [
    ("wall_s", "s");
    ("setup_s", "s");
    ("heap_peak_mb", "MB");
    ("commit_p50_ms", "ms");
    ("commit_p99_ms", "ms");
    ("exec_p50_ms", "ms");
    ("goodput_ops_s", "ops/s");
  ]

let per_layer_units =
  [
    ("sim.events", "count");
    ("sim.events_per_commit", "events/op");
    ("sim.loop_s", "s");
    ("sim.events_per_s", "events/s");
    ("net.msgs_sent", "count");
    ("net.msgs_delivered", "count");
    ("net.msgs_dropped", "count");
    ("net.msgs_per_commit", "msgs/op");
    ("core.dfp_fast_ratio", "ratio");
    ("core.dm_share", "ratio");
    ("core.dfp_conflicts", "count");
    ("core.late_decisions", "count");
    ("measure.estimator_err_ms", "ms");
    ("proto.submit_ns", "ns");
    ("proto.fast_commits", "count");
    ("proto.slow_commits", "count");
    ("store.syncs", "count");
    ("store.sync_writes_per_commit", "writes/op");
    ("store.recoveries", "count");
    ("store.recovery_ms_max", "ms");
    ("smr.retries", "count");
    ("smr.abandoned", "count");
    ("smr.dedup_suppressed", "count");
    ("shard.routed_max_over_min", "ratio");
    ("shard.migrations", "count");
    ("shard.migrations_aborted", "count");
    ("shard.hot_flags", "count");
    ("obs.journal_events", "count");
    ("obs.journal_dropped", "count");
    ("obs.journal_bytes", "bytes");
    ("obs.record_ns_per_event", "ns");
    ("obs.provenance_s", "s");
    ("obs.to_lines_s", "s");
    ("obs.timeline_s", "s");
    ("fault.checker_s", "s");
    ("fault.checker_ns_per_event", "ns");
    ("fault.violations", "count");
    ("trace.overhead_s", "s");
  ]

let median = function
  | [] -> Float.nan
  | xs ->
    let a = Array.of_list xs in
    Array.sort Float.compare a;
    let n = Array.length a in
    if n mod 2 = 1 then a.(n / 2) else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.

let same a b =
  List.equal
    (fun (n, x) (m, y) -> String.equal n m && Float.equal x y)
    a b

let get figures name =
  match List.assoc_opt name figures with Some v -> v | None -> Float.nan

let pick units values =
  List.map (fun (name, unit) -> { name; value = get values name; unit }) units

(* [f] repeatedly until [seconds] of wall time have passed; at least
   once. *)
let for_seconds seconds f =
  let t0 = Ledger.now () in
  let rec go acc =
    let acc = f () :: acc in
    if Ledger.now () -. t0 >= seconds then List.rev acc else go acc
  in
  go []

let heap_peak_mb () =
  let s = Gc.quick_stat () in
  float_of_int (s.Gc.top_heap_words * (Sys.word_size / 8)) /. 1048576.

(* Set-up takes well under a millisecond, so each timed run is followed
   by a batch of probes that stop [Fabric.run] at its first event; the
   batch's median, scaled by the run's kernel time, is one sample. The
   batch starts from a collected heap, as the timed runs do, so that
   the last run's garbage does not land in its major slices. *)
let probes_per_run = 25

let setup_samples spec ~seed sinks =
  Gc.full_major ();
  List.init probes_per_run (fun _ -> Workload.setup_probe spec ~seed sinks)

let dedup errors = List.sort_uniq String.compare errors

let ops_of runs =
  List.fold_left
    (fun (a, f) (s, c) -> (a + s, f + (s - c)))
    (0, 0) runs

(* The simulated figures a reader of the paper's results sees, printed
   beside the gated metrics: the pooled tail, its p99.9 only with at
   least ten samples beyond it, and the fault figures only where there
   are faults. *)
let notes (spec : Workload.spec) figures =
  let samples = get figures "commit_samples" in
  let note name unit = { name; value = get figures name; unit } in
  [ note "commit_samples" "count"; note "commit_p99_pooled_ms" "ms" ]
  @ (if samples *. 0.001 >= 10. then [ note "commit_p999_pooled_ms" "ms" ]
     else [])
  @ [ note "ops_failed_ratio" "ratio" ]
  @
  match spec.Workload.kind with
  | Workload.Na3_ops_faults -> [ note "dip_pct_max" "%"; note "ttr_ms_max" "ms" ]
  | Workload.Globe3_steady | Workload.Na3_recorded -> []

let figures spec run =
  Workload.simulated spec run @ Workload.fault_figures run @ Workload.counts run

(* Every run starts from a collected heap, so one run's garbage is not
   charged to the next. *)
let execute ?sinks spec ~seed mode =
  Gc.full_major ();
  Workload.execute ?sinks spec ~seed mode

(* The simulated figures over the workload's runs. Medians pool every
   run's samples. The gated p99 is the median of the runs' own p99s:
   the recorded workload's ~200 ms latency episodes hold about 1% of
   its ops, so a pooled p99 (or a mean of p99s) swings by 17-74% over
   seeds with how many episodes the runs caught, the median by 0.5%.
   The faulted workload is the other way round: a run's p99 lands
   anywhere from 137 to 266 ms with how the plan's faults meet its
   load, so the median of twelve runs' p99s spread by 15% over ten
   seeds and their pooled p99 by 8%; it gates the pooled p99. The
   pooled tail is printed beside it, with its count. *)
let pooled spec firsts =
  let merge f =
    List.fold_left
      (fun acc (_, l) -> Domino_stats.Summary.merge acc (f l))
      (Domino_stats.Summary.create ()) firsts
  in
  let commit = merge fst and exec = merge snd in
  let total name = List.fold_left (fun acc (f, _) -> acc +. get f name) 0. firsts in
  let worst name =
    List.fold_left (fun acc (f, _) -> Float.max acc (get f name)) 0. firsts
  in
  let pct = Domino_stats.Summary.percentile in
  let samples = float_of_int (Domino_stats.Summary.count commit) in
  let submitted = total "ops_submitted" in
  [
    ("commit_p50_ms", pct commit 50.);
    ( "commit_p99_ms",
      match spec.Workload.kind with
      | Workload.Na3_ops_faults -> pct commit 99.
      | Workload.Globe3_steady | Workload.Na3_recorded ->
        median (List.map (fun (f, _) -> get f "commit_p99_ms") firsts) );
    ("exec_p50_ms", pct exec 50.);
    ("commit_samples", samples);
    ("commit_p99_pooled_ms", pct commit 99.);
    ("commit_p999_pooled_ms", pct commit 99.9);
    ( "goodput_ops_s",
      samples /. (float_of_int (List.length firsts) *. Workload.window_s spec) );
    ( "ops_failed_ratio",
      if submitted = 0. then 0.
      else (submitted -. total "ops_committed") /. submitted );
    ("dip_pct_max", worst "dip_pct_max");
    ("ttr_ms_max", worst "ttr_ms_max");
  ]

let repeat_error = "a repeat at the same seed gave different results"

let end_to_end spec ~seed ~seconds =
  let seeds = Array.of_list (Workload.seeds spec ~seed) in
  let k = Array.length seeds in
  (* The first run of each seed is the reference every later run of it
     must reproduce exactly; an untimed run of the first seed warms the
     heap and sets its reference. *)
  let refs = Array.make k [] in
  let errors = ref [] in
  let note_run s r =
    let f = figures spec r in
    errors := Workload.check spec r @ !errors;
    (match refs.(s) with
    | [] -> refs.(s) <- f
    | expect -> if not (same f expect) then errors := repeat_error :: !errors);
    f
  in
  ignore (note_run 0 (execute spec ~seed:seeds.(0) Ledger.Plain));
  let probe_sinks = Workload.probe_sinks spec in
  (* Cycle through the seeds for [seconds], and at least once: the first
     pass feeds the pooled figures. The calibration kernel runs before
     every timed run and after the last, so each run is bracketed by two
     kernel times and can be read in reference-host seconds (see
     [Calib]). *)
  let first_pass = ref [] and timings = ref [] and ops = ref [] in
  let heap = ref 0. in
  let t0 = Ledger.now () in
  let i = ref 0 in
  let calib = ref (Calib.time ()) in
  while !i < k || Ledger.now () -. t0 < seconds do
    let s = !i mod k in
    let r = execute spec ~seed:seeds.(s) Ledger.Plain in
    let f = note_run s r in
    if !i < k then first_pass := (f, Workload.latencies r) :: !first_pass;
    let setup =
      median (r.Workload.setup_s :: setup_samples spec ~seed:seeds.(0) probe_sinks)
    in
    (* Other tenants only ever add time, so the faster of the two
       kernel times is the better reading of the host's speed. *)
    let before = !calib in
    calib := Calib.time ();
    timings := (r.Workload.wall_s, setup, Float.min before !calib) :: !timings;
    ops := (Workload.submitted r, Workload.committed r) :: !ops;
    incr i;
    (* The peak after the first pass: a fixed amount of work, however
       many runs the host's speed lets into [seconds]. *)
    if !i = k then heap := heap_peak_mb ()
  done;
  let attempted, failed = ops_of !ops in
  let figures = pooled spec (List.rev !first_pass) in
  (* The median over the runs of each run's time over its kernel time:
     a slow phase of the host slows both, and the median drops the runs
     where it struck one and not the other. *)
  let walls = List.map (fun (w, _, _) -> w) !timings
  and setups = List.map (fun (_, s, _) -> s) !timings
  and calibs = List.map (fun (_, _, c) -> c) !timings in
  let scaled xs = median (List.map2 (fun x c -> x /. c *. Calib.reference_s) xs calibs) in
  let measured =
    [
      ("wall_s", scaled walls);
      ("setup_s", scaled setups);
      ("heap_peak_mb", !heap);
    ]
  in
  let count name n = { name; value = float_of_int n; unit = "count" } in
  let raw name v = { name; value = v; unit = "s" } in
  {
    errors = dedup !errors;
    attempted;
    failed;
    metrics = pick end_to_end_units (measured @ figures);
    notes =
      notes spec figures
      @ [
          raw "wall_raw_s" (median walls);
          raw "setup_raw_s" (median setups);
          raw "calib_s" (median calibs);
          count "seeds_pooled" k;
          count "timed_runs" !i;
          count "setup_samples" (!i * (probes_per_run + 1));
        ];
    figures;
    first = refs.(0);
  }

type round = {
  r_errors : string list;
  r_ops : int * int;
  r_figures : (string * float) list;
  r_latencies : Domino_stats.Summary.t * Domino_stats.Summary.t;
  r_untraced_wall : float;
  r_times : (string * float) list;
}

let per_event s events = if events = 0. then 0. else s *. 1e9 /. events

let traced spec ~seed ~seconds =
  let seed = List.hd (Workload.seeds spec ~seed) in
  let recording = spec.Workload.kind <> Workload.Globe3_steady in
  let round () =
    let u = execute spec ~seed Ledger.Plain in
    let u_figures = figures spec u in
    let u_errors = Workload.check spec u in
    let u_wall = u.Workload.wall_s in
    let u_ops = (Workload.submitted u, Workload.committed u) in
    let t = execute spec ~seed Ledger.Traced in
    let t_figures = figures spec t in
    let events = get t_figures "obs.journal_events" in
    (* The recorder's in-loop cost: the same seed with sinks off. *)
    let off_loop, off_errors =
      if recording then
        let off =
          execute ~sinks:Workload.Sinks_off spec ~seed Ledger.Traced
        in
        ( off.Workload.loop_s,
          if same (Workload.simulated spec off) (Workload.simulated spec t)
          then []
          else [ "recording changed the simulated results" ] )
      else (t.Workload.loop_s, [])
    in
    let hook_events = float_of_int (Ledger.events t.Workload.ledger) in
    {
      r_errors =
        u_errors @ Workload.check spec t @ off_errors
        @ (if same u_figures t_figures then []
           else [ "the traced run differs from the untraced run" ])
        @
        if Float.equal hook_events (get t_figures "sim.events") then []
        else [ "the event hook missed events" ];
      r_ops = u_ops;
      r_figures = t_figures;
      r_latencies = Workload.latencies t;
      r_untraced_wall = u_wall;
      r_times =
        [
          ("sim.loop_s", t.Workload.loop_s);
          ("sim.events_per_s", hook_events /. t.Workload.loop_s);
          ("proto.submit_ns", Ledger.submit_ns t.Workload.ledger);
          ( "measure.estimator_err_ms",
            Ledger.estimator_err_ms t.Workload.ledger );
          ( "obs.record_ns_per_event",
            per_event (t.Workload.loop_s -. off_loop) events );
          ("obs.provenance_s", t.Workload.post_run_s);
          ("obs.to_lines_s", t.Workload.to_lines_s);
          ("obs.timeline_s", t.Workload.timeline_s);
          ("fault.checker_s", t.Workload.checker_s);
          ("fault.checker_ns_per_event", per_event t.Workload.checker_s events);
          ("trace.overhead_s", t.Workload.wall_s -. u_wall);
        ];
    }
  in
  let rounds = for_seconds seconds round in
  let first = List.hd rounds in
  let errors =
    dedup
      (List.concat_map
         (fun r ->
           r.r_errors
           @
           if same r.r_figures first.r_figures then [] else [ repeat_error ])
         rounds)
  in
  let attempted, failed = ops_of (List.map (fun r -> r.r_ops) rounds) in
  let times =
    List.map
      (fun (name, _) ->
        (name, median (List.map (fun r -> get r.r_times name) rounds)))
      first.r_times
  in
  {
    errors;
    attempted;
    failed;
    metrics = pick per_layer_units (times @ first.r_figures);
    notes =
      notes spec (pooled spec [ (first.r_figures, first.r_latencies) ])
      @ [
          {
            name = "untraced_wall_s";
            value = median (List.map (fun r -> r.r_untraced_wall) rounds);
            unit = "s";
          };
          {
            name = "traced_rounds";
            value = float_of_int (List.length rounds);
            unit = "count";
          };
        ];
    figures = first.r_figures;
    first = first.r_figures;
  }

let non_finite o =
  List.filter_map
    (fun m ->
      if Float.is_finite m.value then None
      else Some (Printf.sprintf "metric %s is not a finite number" m.name))
    o.metrics

let result_line o =
  let correct = o.errors = [] in
  let metrics =
    if correct then
      String.concat ", "
        (List.map
           (fun m ->
             Printf.sprintf "\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}"
               m.name m.value m.unit)
           o.metrics)
    else ""
  in
  Printf.sprintf
    "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}"
    correct o.attempted
    (if correct then o.failed else o.attempted)
    metrics
