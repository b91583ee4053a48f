(* Smoke test of the benchmark: a short run of every workload, twice
   untraced and once traced, at one seed. Asserts that every named
   metric comes out with its unit, that counts and simulated figures
   repeat exactly, and that the traced run matches the untraced one
   (Bench.traced fails its own check otherwise). It also checks the
   na3-ops-faults plan with the full journal (Workload.validate) once
   per seed its own runs use. The base seed is 42, or each seed given
   as an argument. *)

open Perfbench_lib
open Domino_sim

(* Shorter loads than the benchmark's; the ops plan keeps its full
   length because its last event fires at 7 s. *)
let short = function
  | "globe3-steady" -> Some (Time_ns.sec 3)
  | "na3-recorded" -> Some (Time_ns.sec 1)
  | _ -> None

let failures = ref 0

let fail fmt =
  Printf.ksprintf
    (fun s ->
      incr failures;
      Printf.printf "FAIL %s\n%!" s)
    fmt

let expect_metrics name what units (o : Bench.outcome) =
  let got = List.map (fun (m : Bench.metric) -> (m.Bench.name, m.Bench.unit)) o.Bench.metrics in
  if got <> units then fail "%s: %s metrics differ from the catalogue" name what;
  List.iter
    (fun (m : Bench.metric) ->
      if not (Float.is_finite m.Bench.value) then
        fail "%s: %s is not finite" name m.Bench.name)
    o.Bench.metrics;
  List.iter (fail "%s: %s: %s" name what) o.Bench.errors

let smoke seed =
  List.iter
    (fun name ->
      let spec =
        Option.get (Workload.spec ?duration:(short name) ~runs:2 name)
      in
      let a = Bench.end_to_end spec ~seed ~seconds:0. in
      let b = Bench.end_to_end spec ~seed ~seconds:0. in
      expect_metrics name "end-to-end" Bench.end_to_end_units a;
      if not (Bench.same a.Bench.figures b.Bench.figures) then
        fail "%s: two runs at one seed disagree" name;
      let t = Bench.traced spec ~seed ~seconds:0. in
      expect_metrics name "per-layer" Bench.per_layer_units t;
      if not (Bench.same a.Bench.first t.Bench.first) then
        fail "%s: the traced run disagrees with the untraced runs" name;
      Printf.printf "ok %s: %s\n%!" name (Bench.result_line a))
    Workload.names;
  let ops = Option.get (Workload.spec ~runs:2 "na3-ops-faults") in
  List.iter
    (fun seed ->
      List.iter (fail "seed %Ld: %s" seed) (Workload.validate ops ~seed);
      Printf.printf "checked na3-ops-faults plan at seed %Ld\n%!" seed)
    (Workload.seeds ops ~seed)

let () =
  let seeds =
    match List.tl (Array.to_list Sys.argv) with
    | [] -> [ 42L ]
    | args -> List.map Int64.of_string args
  in
  List.iter smoke seeds;
  if !failures > 0 then exit 1
