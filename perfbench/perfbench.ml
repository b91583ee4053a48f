(* The benchmark's measuring program; [run.py] builds and runs it. One
   process, one domain: no [Par] fan-out, so the numbers measure the
   simulator and not the OS scheduler. *)

open Perfbench_lib

let usage =
  "perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1> \
   [--commit <id>]"

let () =
  let workload = ref "" and seed = ref 0 and seconds = ref 10. in
  let trace = ref 0 and commit = ref "unknown" in
  Arg.parse
    [
      ("--workload", Arg.Set_string workload, " one of the named workloads");
      ("--seed", Arg.Set_int seed, " workload seed");
      ("--seconds", Arg.Set_float seconds, " wall seconds to measure");
      ("--trace", Arg.Set_int trace, " 1: the traced per-layer run");
      ("--commit", Arg.Set_string commit, " source revision, for the header");
    ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    usage;
  let spec =
    match Workload.spec !workload with
    | Some s -> s
    | None ->
      Printf.eprintf "perfbench: unknown workload %S (known: %s)\n" !workload
        (String.concat ", " Workload.names);
      exit 2
  in
  Printf.printf "# perfbench workload=%s seed=%d seconds=%g trace=%d\n"
    !workload !seed !seconds !trace;
  Printf.printf "# nproc=%d ocaml=%s commit=%s\n%!"
    (Domain.recommended_domain_count ())
    Sys.ocaml_version !commit;
  let seed = Int64.of_int !seed and seconds = !seconds in
  let o =
    if !trace = 1 then Bench.traced spec ~seed ~seconds
    else Bench.end_to_end spec ~seed ~seconds
  in
  let o = { o with Bench.errors = o.Bench.errors @ Bench.non_finite o } in
  List.iter
    (fun (m : Bench.metric) ->
      Printf.printf "%-30s %.6g %s\n" m.Bench.name m.Bench.value m.Bench.unit)
    (o.Bench.metrics @ o.Bench.notes);
  List.iter (Printf.eprintf "perfbench: check failed: %s\n") o.Bench.errors;
  print_endline (Bench.result_line o);
  if o.Bench.errors <> [] then exit 1
