(* Tests for the observability layer: metrics registry semantics,
   HDR-style histogram bucketing, deterministic JSON emission, and the
   span-tree focus filter behind [--trace-op]. *)

open Domino_obs

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)
let check_f = Alcotest.(check (float 1e-9))

let contains haystack needle =
  let nh = String.length haystack and nn = String.length needle in
  let rec go i = i + nn <= nh && (String.sub haystack i nn = needle || go (i + 1)) in
  go 0

(* --- bucket layout ------------------------------------------------ *)

let test_bucket_unit_range () =
  (* The first 32 buckets are unit-width: value k lands in bucket k. *)
  for k = 0 to 31 do
    check_int (Printf.sprintf "index of %d" k) k
      (Metrics.bucket_index (float_of_int k));
    let lo, hi = Metrics.bucket_bounds k in
    check_f "lo" (float_of_int k) lo;
    check_f "hi" (float_of_int (k + 1)) hi
  done;
  check_int "31.9 stays in bucket 31" 31 (Metrics.bucket_index 31.9)

let test_bucket_contains_value () =
  (* Every sample must fall inside the bounds of its own bucket. *)
  let values =
    [ 0.; 0.5; 1.; 31.; 32.; 33.; 47.; 64.; 100.; 1023.; 1024.; 65535.;
      1e6; 1e9; 1e12 ]
  in
  List.iter
    (fun v ->
      let idx = Metrics.bucket_index v in
      let lo, hi = Metrics.bucket_bounds idx in
      check_bool (Printf.sprintf "%g in [%g, %g)" v lo hi) true
        (lo <= v && v < hi))
    values

let test_bucket_monotone () =
  (* Bucket index is non-decreasing in the sample value. *)
  let prev = ref (-1) in
  let v = ref 0.25 in
  while !v < 1e12 do
    let idx = Metrics.bucket_index !v in
    check_bool (Printf.sprintf "monotone at %g" !v) true (idx >= !prev);
    prev := idx;
    v := !v *. 1.37
  done

let test_bucket_relative_error () =
  (* Above the unit range each power-of-two span splits into 32
     sub-buckets, so relative width is bounded by 1/32. *)
  let v = ref 40. in
  while !v < 1e12 do
    let lo, hi = Metrics.bucket_bounds (Metrics.bucket_index !v) in
    check_bool
      (Printf.sprintf "width at %g" !v)
      true
      ((hi -. lo) /. lo <= 1. /. 32. +. 1e-12);
    v := !v *. 2.7
  done

let test_bucket_clamps () =
  check_int "negative clamps to 0" 0 (Metrics.bucket_index (-5.));
  check_int "nan clamps to 0" 0 (Metrics.bucket_index nan);
  (* Absurdly large values saturate into one final bucket rather than
     raising or overflowing. *)
  check_int "huge values share the last bucket"
    (Metrics.bucket_index 1e30)
    (Metrics.bucket_index infinity);
  let lo, hi = Metrics.bucket_bounds (Metrics.bucket_index 1e30) in
  check_bool "last bucket has sane bounds" true (lo < hi)

(* --- registry ----------------------------------------------------- *)

let test_counter_gauge_basics () =
  let m = Metrics.create () in
  let c = Metrics.counter m "a.count" in
  Metrics.inc c;
  Metrics.add c 4;
  check_int "counter" 5 (Metrics.counter_value c);
  (* Get-or-create: same name, same instrument. *)
  Metrics.inc (Metrics.counter m "a.count");
  check_int "shared by name" 6 (Metrics.counter_value c);
  let g = Metrics.gauge m "a.gauge" in
  Metrics.set g 2.5;
  check_f "gauge" 2.5 (Metrics.gauge_value g);
  check_bool "find_counter" true (Metrics.find_counter m "a.count" <> None);
  check_bool "find miss" true (Metrics.find_counter m "nope" = None)

let test_kind_collision_raises () =
  let m = Metrics.create () in
  ignore (Metrics.counter m "x");
  Alcotest.check_raises "counter reused as gauge"
    (Invalid_argument "Metrics.gauge: x is a counter") (fun () ->
      ignore (Metrics.gauge m "x"))

let test_histogram_stats () =
  let m = Metrics.create () in
  let h = Metrics.histogram m "lat" in
  check_bool "empty min is nan" true (Float.is_nan (Metrics.histogram_min h));
  check_bool "empty quantile is nan" true
    (Float.is_nan (Metrics.histogram_quantile h 50.));
  List.iter (Metrics.observe h) [ 3.; 1.; 10. ];
  Metrics.observe h (-7.) (* clamped to 0 *);
  check_int "count" 4 (Metrics.histogram_count h);
  check_f "sum" 14. (Metrics.histogram_sum h);
  check_f "min (clamped sample)" 0. (Metrics.histogram_min h);
  check_f "max" 10. (Metrics.histogram_max h);
  check_int "clamp counted" 1 (Metrics.histogram_clamped h)

let test_clamp_counter () =
  let m = Metrics.create () in
  let h = Metrics.histogram m "lat.ms" in
  check_int "fresh histogram" 0 (Metrics.histogram_clamped h);
  Metrics.observe h 5.;
  Metrics.observe h (-1.);
  Metrics.observe h nan;
  Metrics.observe h 0. (* zero is a legal sample, not a clamp *);
  check_int "negative and nan clamped" 2 (Metrics.histogram_clamped h);
  check_int "clamped samples still counted" 4 (Metrics.histogram_count h);
  check_bool "clamped exposed in JSON" true
    (contains (Metrics.to_json_string m) "\"clamped\": 2")

(* The documented quantile contract, checked against the exact order
   statistic on random inputs: [histogram_quantile] is an upper bound,
   within the bucket layout's resolution — ~3.2% relative above the
   unit range, +1 absolute inside it. *)
let test_quantile_vs_exact =
  let gen =
    QCheck.Gen.(
      pair
        (list_size (int_range 1 200)
           (map (fun e -> Float.pow 10. e) (float_range (-3.) 6.)))
        (float_range 0. 100.))
  in
  QCheck.Test.make
    ~name:"histogram_quantile bounds the exact order statistic" ~count:500
    (QCheck.make
       ~print:(fun (xs, q) ->
         Printf.sprintf "q=%g over %s" q
           (String.concat ";" (List.map string_of_float xs)))
       gen)
    (fun (samples, q) ->
      let m = Metrics.create () in
      let h = Metrics.histogram m "prop" in
      List.iter (Metrics.observe h) samples;
      let n = List.length samples in
      let rank =
        Stdlib.max 1 (int_of_float (ceil (q /. 100. *. float_of_int n)))
      in
      let exact = List.nth (List.sort compare samples) (rank - 1) in
      let q_hat = Metrics.histogram_quantile h q in
      q_hat >= exact -. 1e-9
      && q_hat <= Float.max (exact *. (1. +. 1. /. 32.)) (exact +. 1.) +. 1e-9)

let test_histogram_quantiles () =
  let m = Metrics.create () in
  let h = Metrics.histogram m "q" in
  (* One sample per unit bucket 0..31: quantiles are exact bucket
     upper bounds, capped at the observed max. *)
  for k = 0 to 31 do
    Metrics.observe h (float_of_int k)
  done;
  check_f "p50" 16. (Metrics.histogram_quantile h 50.);
  check_f "p100 = max" 31. (Metrics.histogram_quantile h 100.);
  let p95 = Metrics.histogram_quantile h 95. in
  check_bool "p95 between p50 and max" true (p95 >= 16. && p95 <= 31.);
  check_bool "monotone in q" true
    (Metrics.histogram_quantile h 25. <= Metrics.histogram_quantile h 75.)

(* --- deterministic emission --------------------------------------- *)

let populate order m =
  (* Same instruments, insertion order controlled by [order]. *)
  let names = [ "b.counter"; "a.counter"; "c.counter" ] in
  let names = if order then names else List.rev names in
  List.iter (fun n -> Metrics.add (Metrics.counter m n) 7) names;
  Metrics.set (Metrics.gauge m "z.gauge") 1.5;
  let h = Metrics.histogram m "lat.ms" in
  List.iter (Metrics.observe h) [ 0.5; 3.; 3.; 250.; 42. ]

let test_json_deterministic () =
  let m1 = Metrics.create () and m2 = Metrics.create () in
  populate true m1;
  (* Different registration order must not change the bytes: emission
     sorts by instrument name. *)
  populate false m2;
  let s1 = Metrics.to_json_string m1 and s2 = Metrics.to_json_string m2 in
  Alcotest.(check string) "byte-identical" s1 s2;
  check_bool "counters present" true (contains s1 "a.counter");
  check_bool "histogram buckets present" true (contains s1 "\"buckets\"")

(* --- span-tree focus ---------------------------------------------- *)

let at = Domino_sim.Time_ns.(add zero (ms 5))

let test_trace_disabled_by_default () =
  let f = Provenance.focus 0 in
  Provenance.observe f
    (Journal.Msg_sent
       { seq = 0; src = 3; dst = 0; cls = "proposal"; op = Some (3, 0); at });
  check_bool "nothing kept before the first submit" true
    (Provenance.focused f = []);
  Alcotest.(check string) "empty tree" "" (Provenance.span_tree []);
  Alcotest.check_raises "negative index rejected"
    (Invalid_argument "Provenance.focus: nth must be >= 0") (fun () ->
      ignore (Provenance.focus (-1)))

let test_trace_records_focused_op_only () =
  let f = Provenance.focus 1 in
  let sent op = Journal.Msg_sent { seq = 0; src = 3; dst = 0; cls = "c"; op; at } in
  List.iter (Provenance.observe f)
    [
      Journal.Submit { op = (4, 9); node = 4; key = 1; at };
      Journal.Submit { op = (3, 0); node = 3; key = 2; at };
      sent (Some (4, 9));
      sent None;
      sent (Some (3, 0));
      Journal.Phase { node = 3; op = Some (3, 0); name = "p"; dur = 0; at };
      Journal.Commit { op = (3, 0); node = 3; at };
    ];
  check_int "only the second op's submit, send and commit are kept" 3
    (List.length (Provenance.focused f));
  Alcotest.(check string) "send and commit hang off the submit"
    "op n3#0\n\
     `- submit at n3 @ 5.000ms\n\
    \   |- c n3->n0 @ 5.000ms (+0.000ms)\n\
    \   `- commit learned at n3 @ 5.000ms (+0.000ms)\n"
    (Provenance.span_tree (Provenance.focused f))

let () =
  Alcotest.run "obs"
    [
      ( "buckets",
        [
          Alcotest.test_case "unit range" `Quick test_bucket_unit_range;
          Alcotest.test_case "contains value" `Quick test_bucket_contains_value;
          Alcotest.test_case "monotone" `Quick test_bucket_monotone;
          Alcotest.test_case "relative error" `Quick test_bucket_relative_error;
          Alcotest.test_case "clamps" `Quick test_bucket_clamps;
        ] );
      ( "registry",
        [
          Alcotest.test_case "counter/gauge" `Quick test_counter_gauge_basics;
          Alcotest.test_case "kind collision" `Quick test_kind_collision_raises;
          Alcotest.test_case "histogram stats" `Quick test_histogram_stats;
          Alcotest.test_case "clamp counter" `Quick test_clamp_counter;
          Alcotest.test_case "quantiles" `Quick test_histogram_quantiles;
          QCheck_alcotest.to_alcotest test_quantile_vs_exact;
        ] );
      ( "emission",
        [ Alcotest.test_case "json deterministic" `Quick test_json_deterministic ] );
      ( "trace",
        [
          Alcotest.test_case "disabled by default" `Quick
            test_trace_disabled_by_default;
          Alcotest.test_case "focus filter" `Quick
            test_trace_records_focused_op_only;
        ] );
    ]
