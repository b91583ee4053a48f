(* Tests for the parallel work-queue runner (lib/par) and its
   determinism contract: any --jobs value must produce byte-identical
   results to a sequential run. *)

open Domino_par

let check_int = Alcotest.(check int)

(* --- Par.map --- *)

let test_map_order () =
  let input = Array.init 100 (fun i -> i) in
  let out = Par.map ~jobs:4 (fun x -> x * x) input in
  Alcotest.(check (array int)) "index order preserved"
    (Array.map (fun x -> x * x) input)
    out

let test_map_matches_sequential () =
  let input = Array.init 37 (fun i -> i) in
  let f x = (x * 7919) mod 101 in
  Alcotest.(check (array int)) "jobs=5 = jobs=1"
    (Par.map ~jobs:1 f input)
    (Par.map ~jobs:5 f input)

let test_map_empty_and_single () =
  Alcotest.(check (array int)) "empty" [||] (Par.map ~jobs:4 (fun x -> x) [||]);
  Alcotest.(check (array int)) "single" [| 9 |]
    (Par.map ~jobs:4 (fun x -> x * 3) [| 3 |])

let test_map_more_jobs_than_items () =
  let out = Par.map ~jobs:16 (fun x -> x + 1) [| 1; 2; 3 |] in
  Alcotest.(check (array int)) "jobs > n" [| 2; 3; 4 |] out

let test_mapi_passes_index () =
  let out = Par.mapi ~jobs:3 (fun i x -> (i * 10) + x) [| 5; 5; 5 |] in
  Alcotest.(check (array int)) "index visible" [| 5; 15; 25 |] out

let test_map_list () =
  Alcotest.(check (list int)) "list roundtrip" [ 2; 4; 6 ]
    (Par.map_list ~jobs:2 (fun x -> 2 * x) [ 1; 2; 3 ])

exception Boom of int

let test_exception_propagates () =
  match Par.map ~jobs:4 (fun x -> if x mod 3 = 1 then raise (Boom x) else x)
          (Array.init 20 (fun i -> i))
  with
  | _ -> Alcotest.fail "expected Boom"
  | exception Boom x ->
    (* Lowest failing index wins, deterministically: 1 fails first. *)
    check_int "lowest failing index" 1 x

let test_jobs_validation () =
  Alcotest.check_raises "zero jobs"
    (Invalid_argument "Par.set_jobs: jobs must be >= 1") (fun () ->
      Par.set_jobs 0)

(* --- determinism of the experiment runners across jobs --- *)

let summary_fingerprint s =
  Printf.sprintf "%d %.9f %.9f %.9f"
    (Domino_stats.Summary.count s)
    (Domino_stats.Summary.percentile s 50.)
    (Domino_stats.Summary.percentile s 95.)
    (Domino_stats.Summary.mean s)

let test_run_sweep_jobs_invariant () =
  (* A fig8-style sweep rendered to a table must be byte-identical at
     jobs=1 and jobs=4 — the PR's acceptance criterion. *)
  let cells =
    List.map
      (fun proto -> (Domino_exp.Exp_common.na3, proto))
      [
        Domino_exp.Protocols.domino_default;
        Domino_exp.Protocols.Mencius;
        Domino_exp.Protocols.Multi_paxos;
      ]
  in
  let render jobs =
    let results =
      Domino_exp.Exp_common.run_sweep ~runs:2 ~seed:11L
        ~duration:(Domino_sim.Time_ns.sec 3) ~jobs cells
    in
    let t =
      Domino_stats.Tablefmt.create ~title:"sweep"
        ~header:[ "cell"; "commit" ]
    in
    List.iteri
      (fun i (commit, exec) ->
        Domino_stats.Tablefmt.add_row t
          [
            string_of_int i;
            summary_fingerprint commit ^ " / " ^ summary_fingerprint exec;
          ])
      results;
    Domino_stats.Tablefmt.to_string t
  in
  let t1 = render 1 in
  let t4 = render 4 in
  Alcotest.(check string) "table byte-identical" t1 t4

let () =
  Alcotest.run "par"
    [
      ( "map",
        [
          Alcotest.test_case "order" `Quick test_map_order;
          Alcotest.test_case "matches sequential" `Quick test_map_matches_sequential;
          Alcotest.test_case "empty and single" `Quick test_map_empty_and_single;
          Alcotest.test_case "jobs > n" `Quick test_map_more_jobs_than_items;
          Alcotest.test_case "mapi" `Quick test_mapi_passes_index;
          Alcotest.test_case "map_list" `Quick test_map_list;
          Alcotest.test_case "exception propagation" `Quick test_exception_propagates;
          Alcotest.test_case "jobs validation" `Quick test_jobs_validation;
        ] );
      ( "determinism",
        [
          Alcotest.test_case "run_sweep jobs=1 = jobs=4" `Slow
            test_run_sweep_jobs_invariant;
        ] );
    ]
