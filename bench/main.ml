(* The benchmark harness: regenerates every table and figure of the
   paper's evaluation (see DESIGN.md for the index), printing our
   measurements next to the paper's reported numbers.

   Usage:
     dune exec bench/main.exe                # everything, quick scale
     dune exec bench/main.exe -- fig8a       # one experiment
     dune exec bench/main.exe -- --paper     # paper-scale runs (slow)
     dune exec bench/main.exe -- --jobs 4    # parallel simulation runs
     dune exec bench/main.exe -- --no-timing # suppress wall-clock lines
                                             # (CI diffs output byte-wise)
     dune exec bench/main.exe -- --micro      # microbenchmarks -> BENCH_micro.json
     dune exec bench/main.exe -- --sched      # pheap/wheel A/B -> BENCH_sched.json
     dune exec bench/main.exe -- --sim-report # perf baseline -> BENCH_sim.json
     dune exec bench/main.exe -- --scheduler pheap ...  # queue impl override

   Quick scale uses shorter runs and fewer repetitions than the paper's
   10 x 90 s; the shapes are stable well below that. Sweeps fan their
   independent runs across --jobs domains (default: all cores); output
   is byte-identical for any --jobs value. *)

open Domino_stats

let seed = 20201204L (* CoNEXT'20 *)

type experiment = {
  id : string;
  describe : string;
  aliases : string list;
  run : quick:bool -> unit;
}

let print_tables ts = List.iter Tablefmt.print ts

let of_registry (e : Domino_exp.Exp_registry.entry) =
  {
    id = e.id;
    describe = e.describe;
    aliases = e.aliases;
    run = (fun ~quick -> print_tables (e.run ~quick ~seed));
  }

(* Bench-only experiments: these need wall-clock time (Unix) or poke
   protocol internals, so they live here rather than in the registry. *)

let storage_experiment =
  {
    id = "storage";
    describe = "section 6 storage compression of the no-op log";
    aliases = [];
    run =
      (fun ~quick:_ ->
        let open Domino_sim in
        let open Domino_net in
        let open Domino_core in
        let engine = Engine.create ~seed:31L () in
        let placement = [| "WA"; "PR"; "NSW"; "VA" |] in
        let net = Topology.make_net engine Topology.globe ~placement () in
        let cfg = Config.make ~replicas:[| 0; 1; 2 |] () in
        let d = Domino.create ~net ~cfg ~observer:Domino_smr.Observer.null () in
        let _w =
          Domino_kv.Workload.create ~rate:200. ~clients:[ 3 ]
            ~duration:(Time_ns.sec 10) ~submit:(Domino.submit d) engine
        in
        Engine.run ~until:(Time_ns.sec 12) engine;
        let t =
          Tablefmt.create
            ~title:
              "Section 6: storage for the decided DFP lane after 10s at \
               200 req/s (1e9 positions/s)"
            ~header:[ "replica"; "ops held"; "noop positions"; "stored noop nodes" ]
        in
        for i = 0 to 2 do
          let s = Replica.storage_stats (Domino.replica d i) in
          Tablefmt.add_row t
            [
              Printf.sprintf "r%d" i;
              string_of_int s.Replica.log_ops;
              Printf.sprintf "%.2e" (float_of_int s.Replica.noop_positions);
              string_of_int s.Replica.noop_ranges;
            ]
        done;
        Tablefmt.print t);
  }

let single_core_throughput ~duration =
  let open Domino_obs in
  let metrics = Metrics.create () in
  let t0 = Unix.gettimeofday () in
  let r =
    Domino_exp.Exp_common.run ~seed ~duration ~metrics
      Domino_exp.Exp_common.globe3 Domino_exp.Exp_common.domino_default
  in
  let wall = Unix.gettimeofday () -. t0 in
  let events =
    match Metrics.find_gauge metrics "sim.events" with
    | Some g -> Metrics.gauge_value g
    | None -> 0.
  in
  (r, metrics, events, wall)

let obs_experiment =
  {
    id = "obs";
    describe = "observability layer: event-loop throughput + registry dump";
    aliases = [];
    run =
      (fun ~quick ->
        let open Domino_sim in
        let duration = Time_ns.sec (if quick then 10 else 30) in
        let r, metrics, events, wall = single_core_throughput ~duration in
        Printf.printf
          "event loop: %.0f simulated events in %.2fs wall = %.0f events/s\n"
          events wall (events /. wall);
        Printf.printf "(%d messages delivered, %d ops committed)\n\n"
          r.Domino_exp.Exp_common.wall_events
          (Domino_smr.Observer.Recorder.committed
             r.Domino_exp.Exp_common.recorder);
        print_tables (Domino_obs.Metrics.to_tables metrics));
  }

let experiments =
  let registry = List.map of_registry Domino_exp.Exp_registry.all in
  let rec insert_storage = function
    | [] -> [ storage_experiment ]
    | e :: _ as rest when e.id = "fig13" -> storage_experiment :: rest
    | e :: rest -> e :: insert_storage rest
  in
  insert_storage registry @ [ obs_experiment ]

(* --- machine-readable perf reports --- *)

let write_json file json =
  let oc = open_out file in
  output_string oc (Json.to_string_pretty json);
  output_string oc "\n";
  close_out oc;
  Printf.printf "wrote %s\n%!" file

(* BENCH_sim.json: the perf trajectory every later PR is measured
   against — single-core event-loop throughput plus the wall-clock of
   one multi-run sweep at jobs=1 vs jobs=N. *)
let sim_report ~jobs =
  let open Domino_sim in
  Printf.printf "sim perf report (jobs=%d)\n%!" jobs;
  let physical_cores = Domino_par.Par.physical_cores () in
  let recommended_jobs = Domino_par.Par.recommended_jobs () in
  if jobs > physical_cores then
    Printf.eprintf
      "bench: warning: --jobs %d exceeds the %d physical cores; SMT \
       siblings add no simulation throughput\n%!"
      jobs physical_cores;
  let _, _, events, wall = single_core_throughput ~duration:(Time_ns.sec 10) in
  let events_per_sec = events /. wall in
  Printf.printf "  single-core: %.0f events in %.2fs = %.0f events/s\n%!"
    events wall events_per_sec;
  let cells =
    List.map
      (fun proto -> (Domino_exp.Exp_common.na3, proto))
      Domino_exp.Exp_fig8.protocols
  in
  let runs = 4 in
  let sweep_wall jobs =
    let t0 = Unix.gettimeofday () in
    ignore
      (Domino_exp.Exp_common.run_sweep ~runs ~seed ~duration:(Time_ns.sec 8)
         ~jobs cells);
    Unix.gettimeofday () -. t0
  in
  let wall1 = sweep_wall 1 in
  let walln = sweep_wall jobs in
  (* On one physical core the jobs=N sweep only time-slices the same
     core, so its ratio to jobs=1 says nothing about parallel speedup:
     report n/a (JSON null) rather than a misleading figure. *)
  let speedup =
    if physical_cores > 1 && walln > 0. then Some (wall1 /. walln) else None
  in
  Printf.printf
    "  fig8a-style sweep (%d runs): %.2fs at jobs=1, %.2fs at jobs=%d \
     (speedup %s)\n%!"
    (List.length cells * runs) wall1 walln jobs
    (match speedup with
    | Some x -> Printf.sprintf "%.2fx" x
    | None -> "n/a");
  (* Durability profile: one wipe-restart run per protocol on the
     fig7-double layout — how many WAL records each protocol fsyncs and
     how long crash-with-amnesia recovery replays take. *)
  let wipe_plan =
    match
      Domino_fault.Plan.parse
        "at 1s crash node=2\nat 1800ms wipe node=2\nat 3500ms wipe node=2\n"
    with
    | Ok p -> p
    | Error e -> failwith e
  in
  let durability_runs =
    List.map
      (fun proto ->
        let r =
          Domino_exp.Exp_common.run ~seed ~rate:100. ~duration:(Time_ns.sec 5)
            ~faults:wipe_plan Domino_exp.Exp_common.fig7_double proto
        in
        (Domino_exp.Exp_common.protocol_name proto, r))
      Domino_exp.Exp_fig8.protocols
  in
  let recovery_ms =
    List.concat_map
      (fun (_, r) -> r.Domino_exp.Exp_common.recovery_ms)
      durability_runs
  in
  let bucket lo hi =
    List.length (List.filter (fun v -> v >= lo && v < hi) recovery_ms)
  in
  Printf.printf
    "  durability: %d recoveries across %d protocols, max replay %.2f ms\n%!"
    (List.length recovery_ms)
    (List.length durability_runs)
    (List.fold_left Float.max 0. recovery_ms);
  write_json "BENCH_sim.json"
    (Json.Obj
       [
         ("schema", Json.String "domino-bench-sim/3");
         ("generated_by", Json.String "bench/main.exe --sim-report");
         ("jobs", Json.Int jobs);
         ("physical_cores", Json.Int physical_cores);
         ("recommended_jobs", Json.Int recommended_jobs);
         ( "single_core",
           Json.Obj
             [
               ("sim_events", Json.Float events);
               ("wall_s", Json.Float wall);
               ("events_per_sec", Json.Float events_per_sec);
             ] );
         ( "sweep",
           Json.Obj
             [
               ("id", Json.String "fig8a");
               ("cells", Json.Int (List.length cells));
               ("runs_per_cell", Json.Int runs);
               ("sim_seconds_per_run", Json.Int 8);
               ("wall_s_jobs1", Json.Float wall1);
               ("wall_s_jobsN", Json.Float walln);
               ( "speedup",
                 match speedup with Some x -> Json.Float x | None -> Json.Null );
             ] );
         ( "durability",
           Json.Obj
             [
               ( "fsync_us",
                 Json.Float
                   (Domino_sim.Time_ns.to_us_f
                      Domino_store.Store.default_params
                        .Domino_store.Store.sync_latency) );
               ( "wipe_plan",
                 Json.String (Domino_fault.Plan.to_string wipe_plan) );
               ( "per_run",
                 Json.List
                   (List.map
                      (fun (name, r) ->
                        Json.Obj
                          [
                            ("protocol", Json.String name);
                            ( "sync_writes",
                              Json.Int r.Domino_exp.Exp_common.sync_writes );
                            ( "recoveries",
                              Json.Int
                                (List.length
                                   r.Domino_exp.Exp_common.recovery_ms) );
                          ])
                      durability_runs) );
               ( "recovery_ms_histogram",
                 Json.Obj
                   [
                     ("lt_1", Json.Int (bucket 0. 1.));
                     ("1_to_2", Json.Int (bucket 1. 2.));
                     ("2_to_5", Json.Int (bucket 2. 5.));
                     ("5_to_10", Json.Int (bucket 5. 10.));
                     ("ge_10", Json.Int (bucket 10. infinity));
                   ] );
             ] );
       ])

(* --- scheduler A/B: BENCH_sched.json --- *)

(* Hand-rolled timing rather than bechamel: the patterns need exact
   control over pending-set size (1k and 100k entries), and a single
   100k-entry round is already milliseconds — enough to time directly.
   Median of [runs] rounds, after one warmup. *)
let median_ns_per_op ~runs ~ops f =
  ignore (f ());
  let samples =
    Array.init runs (fun _ ->
        let t0 = Unix.gettimeofday () in
        f ();
        (Unix.gettimeofday () -. t0) *. 1e9 /. float_of_int ops)
  in
  Array.sort compare samples;
  samples.(runs / 2)

(* A common face over the two queue implementations. Times come from a
   cheap LCG so both sides see the identical (and scattered) stream. *)
type queue_ops = {
  q_push : time:int -> unit;
  q_push_cancellable : time:int -> (unit -> unit);
  q_pop : unit -> bool;
}

let pheap_ops () =
  let open Domino_sim in
  let h = Pheap.create () in
  {
    q_push = (fun ~time -> ignore (Pheap.push h ~time 0));
    q_push_cancellable =
      (fun ~time ->
        let handle = Pheap.push h ~time 0 in
        fun () -> Pheap.cancel h handle);
    q_pop = (fun () -> Pheap.pop h <> None);
  }

let wheel_ops () =
  let open Domino_sim in
  let w = Wheel.create ~dummy:0 in
  {
    q_push = (fun ~time -> Wheel.add w ~time 0);
    q_push_cancellable =
      (fun ~time ->
        let handle = Wheel.push w ~time 0 in
        fun () -> Wheel.cancel w handle);
    q_pop = (fun () -> Wheel.pop w <> None);
  }

let lcg_times n =
  (* Deterministic scattered times: spacings up to ~65 us keep entries
     across several wheel levels, like simulation traffic. *)
  (* Java's 48-bit LCG: multiplier fits OCaml's 63-bit int. *)
  let state = ref 0x5DEECE66D in
  Array.init n (fun _ ->
      state := ((!state * 0x5DEECE66D) + 0xB) land 0xFFFF_FFFF_FFFF;
      (!state lsr 16) land 0xFFFF_FFF)

let sched_pattern_push_pop mk n () =
  let q = mk () in
  let times = lcg_times n in
  Array.iter (fun time -> q.q_push ~time) times;
  while q.q_pop () do
    ()
  done

let sched_pattern_cancel_heavy mk n () =
  let q = mk () in
  let times = lcg_times n in
  let cancels = Array.map (fun time -> q.q_push_cancellable ~time) times in
  Array.iteri (fun i cancel -> if i land 1 = 0 then cancel ()) cancels;
  while q.q_pop () do
    ()
  done

let sched_pattern_periodic scheduler n () =
  let open Domino_sim in
  let e = Engine.create ~scheduler () in
  for i = 0 to n - 1 do
    ignore
      (Engine.every e
         ~interval:(Time_ns.ms 1 + (i land 0xFF))
         (fun () -> ()))
  done;
  Engine.run ~until:(Time_ns.ms 5) e

let sched () =
  let open Domino_sim in
  let impls =
    [
      ("pheap", Engine.Pheap_sched, pheap_ops);
      ("wheel", Engine.Wheel_sched, wheel_ops);
    ]
  in
  let sizes = [ ("1k", 1_000); ("100k", 100_000) ]
  and runs = 5 in
  Printf.printf "scheduler microbenchmarks (ns/op, median of %d):\n%!" runs;
  let results =
    List.map
      (fun (impl_name, scheduler, mk) ->
        let cells =
          List.concat_map
            (fun (size_name, n) ->
              [
                ( "push-pop-" ^ size_name,
                  median_ns_per_op ~runs ~ops:(2 * n)
                    (sched_pattern_push_pop mk n) );
                ( "cancel-heavy-" ^ size_name,
                  median_ns_per_op ~runs ~ops:(2 * n)
                    (sched_pattern_cancel_heavy mk n) );
                ( "periodic-" ^ size_name,
                  (* ~5 fires per timer inside the 5 ms horizon *)
                  median_ns_per_op ~runs ~ops:(5 * n)
                    (sched_pattern_periodic scheduler n) );
              ])
            sizes
        in
        List.iter
          (fun (pat, ns) -> Printf.printf "  %-8s %-18s %10.1f ns\n" impl_name pat ns)
          cells;
        (impl_name, cells))
      impls
  in
  (* End-to-end A/B: the full reference simulation under each queue.
     Identical event streams (the queues share one total order), so the
     wall-clock ratio is pure scheduler overhead. *)
  let ab =
    List.map
      (fun (impl_name, scheduler, _) ->
        Engine.set_default_scheduler scheduler;
        let _, _, events, wall = single_core_throughput ~duration:(Time_ns.sec 10) in
        Printf.printf "  %-8s end-to-end: %.0f events in %.2fs = %.0f events/s\n%!"
          impl_name events wall (events /. wall);
        (impl_name, events, wall))
      impls
  in
  Engine.set_default_scheduler Engine.Wheel_sched;
  write_json "BENCH_sched.json"
    (Json.Obj
       [
         ("schema", Json.String "domino-bench-sched/1");
         ("generated_by", Json.String "bench/main.exe --sched");
         ("unit", Json.String "ns/op");
         ("runs_per_cell", Json.Int runs);
         ( "results",
           Json.Obj
             (List.map
                (fun (impl_name, cells) ->
                  ( impl_name,
                    Json.Obj
                      (List.map (fun (pat, ns) -> (pat, Json.Float ns)) cells)
                  ))
                results) );
         ( "sim_ab",
           Json.Obj
             (List.map
                (fun (impl_name, events, wall) ->
                  ( impl_name,
                    Json.Obj
                      [
                        ("sim_events", Json.Float events);
                        ("wall_s", Json.Float wall);
                        ("events_per_sec", Json.Float (events /. wall));
                      ] ))
                ab) );
       ])

(* --- Bechamel microbenchmarks for the core data structures --- *)

let micro () =
  let open Bechamel in
  let open Toolkit in
  let window_bench =
    Test.make ~name:"window-add+percentile"
      (Staged.stage (fun () ->
           let open Domino_measure in
           let open Domino_sim in
           let w = Window.create ~window:(Time_ns.sec 1) in
           for i = 1 to 100 do
             Window.add w ~now:(i * Time_ns.ms 10) (Time_ns.ms (50 + (i mod 7)))
           done;
           ignore (Window.percentile w ~now:(Time_ns.sec 1) 95.)))
  in
  let interval_bench =
    Test.make ~name:"interval-set-1k-merges"
      (Staged.stage (fun () ->
           let open Domino_log in
           let s = ref Interval_set.empty in
           for i = 0 to 999 do
             s := Interval_set.add_range ~lo:(i * 3) ~hi:((i * 3) + 4) !s
           done;
           ignore (Interval_set.range_count !s)))
  in
  let heap_bench =
    Test.make ~name:"pheap-1k-push-pop"
      (Staged.stage (fun () ->
           let open Domino_sim in
           let h = Pheap.create () in
           for i = 0 to 999 do
             ignore (Pheap.push h ~time:((i * 7919) mod 1000) i)
           done;
           let rec drain () = match Pheap.pop h with None -> () | Some _ -> drain () in
           drain ()))
  in
  let heap_cancel_bench =
    Test.make ~name:"pheap-1k-push-cancel-half"
      (Staged.stage (fun () ->
           let open Domino_sim in
           let h = Pheap.create () in
           let handles =
             Array.init 1000 (fun i -> Pheap.push h ~time:((i * 7919) mod 1000) i)
           in
           Array.iteri
             (fun i handle -> if i land 1 = 0 then Pheap.cancel h handle)
             handles;
           let rec drain () = match Pheap.pop h with None -> () | Some _ -> drain () in
           drain ()))
  in
  let wheel_bench =
    Test.make ~name:"wheel-1k-push-pop"
      (Staged.stage (fun () ->
           let open Domino_sim in
           let w = Wheel.create ~dummy:0 in
           for i = 0 to 999 do
             Wheel.add w ~time:((i * 7919) mod 1000) i
           done;
           let rec drain () = match Wheel.pop w with None -> () | Some _ -> drain () in
           drain ()))
  in
  let wheel_cancel_bench =
    Test.make ~name:"wheel-1k-push-cancel-half"
      (Staged.stage (fun () ->
           let open Domino_sim in
           let w = Wheel.create ~dummy:0 in
           let handles =
             Array.init 1000 (fun i -> Wheel.push w ~time:((i * 7919) mod 1000) i)
           in
           Array.iteri
             (fun i handle -> if i land 1 = 0 then Wheel.cancel w handle)
             handles;
           let rec drain () = match Wheel.pop w with None -> () | Some _ -> drain () in
           drain ()))
  in
  let engine_bench =
    Test.make ~name:"engine-1k-schedule-run"
      (Staged.stage (fun () ->
           let open Domino_sim in
           let e = Engine.create () in
           for i = 0 to 999 do
             Engine.schedule e ~delay:((i * 7919) mod 1000) (fun () -> ())
           done;
           Engine.run e))
  in
  let exec_bench =
    Test.make ~name:"exec-engine-1k-decisions"
      (Staged.stage (fun () ->
           let open Domino_log in
           let eng = Exec_engine.create ~n_lanes:4 ~on_exec:(fun _ _ -> ()) in
           for i = 0 to 999 do
             Exec_engine.decide_op eng { Position.ts = i; lane = i mod 4 } ()
           done;
           for l = 0 to 3 do
             Exec_engine.set_watermark eng ~lane:l 1000
           done))
  in
  let zipf_bench =
    let z =
      Domino_kv.Workload.Zipf.create ~n:1_000_000 (Domino_sim.Rng.create 1L)
    in
    Test.make ~name:"zipf-10k-samples"
      (Staged.stage (fun () ->
           for _ = 1 to 10_000 do
             ignore (Domino_kv.Workload.Zipf.sample z)
           done))
  in
  let tests =
    Test.make_grouped ~name:"domino-core"
      [
        window_bench; interval_bench; heap_bench; heap_cancel_bench;
        wheel_bench; wheel_cancel_bench; engine_bench; exec_bench; zipf_bench;
      ]
  in
  let instances = Instance.[ monotonic_clock ] in
  let cfg = Benchmark.cfg ~limit:2000 ~quota:(Time.second 1.0) ~kde:(Some 1000) () in
  let raw = Benchmark.all cfg instances tests in
  let results =
    List.map (fun i -> Analyze.all (Analyze.ols ~bootstrap:0 ~r_square:false ~predictors:[| Measure.run |]) i raw) instances
  in
  let results = Analyze.merge (Analyze.ols ~bootstrap:0 ~r_square:false ~predictors:[| Measure.run |]) instances results in
  let estimates = ref [] in
  Hashtbl.iter
    (fun _measure tbl ->
      Hashtbl.iter
        (fun name result ->
          match Bechamel.Analyze.OLS.estimates result with
          | Some [ est ] -> estimates := (name, est) :: !estimates
          | _ -> ())
        tbl)
    results;
  let estimates = List.sort compare !estimates in
  print_endline "Microbenchmarks (ns/run, OLS estimate):";
  List.iter
    (fun (name, est) -> Printf.printf "  %-32s %12.1f ns\n" name est)
    estimates;
  write_json "BENCH_micro.json"
    (Json.Obj
       [
         ("schema", Json.String "domino-bench-micro/1");
         ("generated_by", Json.String "bench/main.exe --micro");
         ("unit", Json.String "ns/run");
         ("estimator", Json.String "ols");
         ( "results",
           Json.Obj (List.map (fun (name, est) -> (name, Json.Float est)) estimates)
         );
       ])

let () =
  let args = Array.to_list Sys.argv |> List.tl in
  (* --jobs N and --scheduler IMPL take a value; strip them first. *)
  let jobs = ref None in
  let rec strip_valued = function
    | "--jobs" :: v :: rest ->
      (match int_of_string_opt v with
      | Some n when n >= 1 -> jobs := Some n
      | _ ->
        Printf.eprintf "bench: --jobs expects a positive integer, got %S\n" v;
        exit 2);
      strip_valued rest
    | "--scheduler" :: v :: rest ->
      (match Domino_sim.Engine.scheduler_of_string v with
      | Some s -> Domino_sim.Engine.set_default_scheduler s
      | None ->
        Printf.eprintf "bench: --scheduler expects wheel or pheap, got %S\n" v;
        exit 2);
      strip_valued rest
    | arg :: rest -> arg :: strip_valued rest
    | [] -> []
  in
  let args = strip_valued args in
  (match !jobs with Some n -> Domino_par.Par.set_jobs n | None -> ());
  let paper = List.mem "--paper" args in
  let quick = not paper in
  let timing = not (List.mem "--no-timing" args) in
  let micro_only = List.mem "--micro" args in
  let sched_only = List.mem "--sched" args in
  let sim_report_only = List.mem "--sim-report" args in
  let wanted =
    List.filter (fun a -> not (String.length a > 1 && a.[0] = '-')) args
  in
  if micro_only then micro ()
  else if sched_only then sched ()
  else if sim_report_only then sim_report ~jobs:(Domino_par.Par.jobs ())
  else begin
    let selected =
      match wanted with
      | [] -> experiments
      | ids ->
        List.filter
          (fun e ->
            List.exists (fun w -> w = e.id || List.mem w e.aliases) ids)
          experiments
    in
    if selected = [] then begin
      Printf.printf "unknown experiment id; available:\n";
      List.iter (fun e -> Printf.printf "  %-8s %s\n" e.id e.describe) experiments;
      exit 1
    end;
    (* Deliberately no jobs count here: output must be byte-identical
       across --jobs values (CI diffs jobs=1 vs jobs=2). *)
    Printf.printf
      "Domino reproduction benchmarks (%s scale; seed %Ld)\n\
       Each block prints our measurement next to the paper's number.\n\n"
      (if quick then "quick" else "paper")
      seed;
    List.iter
      (fun e ->
        Printf.printf "=== %s: %s ===\n%!" e.id e.describe;
        let t0 = Unix.gettimeofday () in
        e.run ~quick;
        if timing then
          Printf.printf "(%.1fs)\n\n%!" (Unix.gettimeofday () -. t0)
        else Printf.printf "\n%!")
      selected
  end
