(* Table-driven conformance tests for the unified protocol API: every
   protocol in [Protocols.all] runs the same smoke scenario through
   Protocol_intf, commits work, and keeps replica state machines in
   agreement — plus determinism checks on the observability output. *)

open Domino_sim
open Domino_net
open Domino_smr
open Domino_obs
open Domino_kv
open Domino_exp

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

(* [Protocols.all] is the one protocol table. *)
let all_names () = List.map Protocols.api_name Protocols.all

let test_registry_names () =
  let names = all_names () in
  Alcotest.(check (list string))
    "all five protocols in the table, sorted"
    [ "domino"; "epaxos"; "fastpaxos"; "mencius"; "multipaxos" ]
    (List.sort compare names);
  check_int "names unique" (List.length names)
    (List.length (List.sort_uniq compare names))

(* name -> selector -> name through a name table built like the CLI's
   [--protocol] enum; an unknown name is the enum's to reject (the
   runtest rule on [run --protocol nope]). *)
let test_api_name_roundtrip () =
  let table = List.map (fun p -> (Protocols.api_name p, p)) Protocols.all in
  List.iter
    (fun p ->
      let n = Protocols.api_name p in
      check_bool (n ^ " roundtrips") true (List.assoc n table = p);
      check_bool (n ^ " resolvable") true
        (let (module P : Protocol_intf.S) = Protocols.resolve p in
         P.name = n))
    Protocols.all

(* Conformance through the experiment harness: identical smoke scenario
   for every protocol in the table. *)
let smoke proto =
  Exp_common.run ~seed:11L ~rate:100. ~duration:(Time_ns.sec 8)
    Exp_common.fig7_double proto

let test_conformance_commits () =
  List.iter
    (fun proto ->
      let name = Protocols.api_name proto in
      let r = smoke proto in
      let g = r.Domino_shard.Fabric.groups.(0) in
      check_bool
        (name ^ " commits operations")
        true
        (Observer.Recorder.committed g.Domino_shard.Fabric.recorder > 0);
      let metrics = r.Domino_shard.Fabric.metrics in
      (match Metrics.find_counter metrics "run.committed" with
      | Some c -> check_bool (name ^ " run.committed > 0") true
                    (Metrics.counter_value c > 0)
      | None -> Alcotest.failf "%s: no run.committed counter" name);
      match
        Metrics.find_counter metrics (name ^ ".msg.proposal.sent")
      with
      | Some c ->
        check_bool (name ^ " sends proposals") true (Metrics.counter_value c > 0)
      | None -> Alcotest.failf "%s: no %s.msg.proposal.sent counter" name name)
    Protocols.all

let test_conformance_stores_agree () =
  List.iter
    (fun proto ->
      let name = Protocols.api_name proto in
      let fps =
        (smoke proto).Domino_shard.Fabric.groups.(0)
          .Domino_shard.Fabric.store_fingerprints
      in
      match fps with
      | [] -> Alcotest.failf "%s: no store fingerprints" name
      | fp :: rest ->
        check_int (name ^ " has one fingerprint per replica") 3
          (List.length fps);
        List.iter
          (fun fp' ->
            check_bool (name ^ " replicas executed identically") true
              (fp = fp'))
          rest)
    Protocols.all

(* Conformance straight against Protocol_intf.S, no harness: a
   hand-built env, a short workload, and the module's own accessors. *)
let direct_run proto =
  let (module P : Protocol_intf.S) = Protocols.resolve proto in
  let engine = Engine.create ~seed:5L () in
  let placement = [| "WA"; "VA"; "QC"; "IA"; "WA" |] in
  let replicas = [| 0; 1; 2 |] in
  let clients = [ 3; 4 ] in
  let observer =
    {
      Observer.on_submit = (fun _ ~now:_ -> ());
      on_commit = (fun _ ~now:_ -> ());
      on_execute = (fun ~replica:_ _ ~now:_ -> ());
      on_phase = (fun ~node:_ ~op:_ ~name:_ ~dur:_ ~now:_ -> ());
    }
  in
  let make_net ~classify:_ ~op_of:_ =
    Topology.make_net engine Topology.na ~placement
  in
  let env =
    {
      (Durable.standalone engine ~replicas ~observer
         { Durable.make = make_net })
      with
      coordinator_of = (fun c -> replicas.(c mod Array.length replicas));
    }
  in
  let p = P.create env in
  let _w =
    Workload.create ~alpha:0.75 ~rate:100. ~clients
      ~duration:(Time_ns.sec 6) ~submit:(P.submit p) engine
  in
  Engine.run ~until:(Time_ns.sec 9) engine;
  (P.committed_count p, P.fast_slow_counts p, P.extra_stats p)

let test_direct_committed_count () =
  List.iter
    (fun proto ->
      let name = Protocols.api_name proto in
      let committed, fast_slow, extra = direct_run proto in
      check_bool (name ^ " committed_count > 0") true (committed > 0);
      (match fast_slow with
      | None -> ()
      | Some (f, s) ->
        check_bool (name ^ " path counts non-negative") true (f >= 0 && s >= 0);
        check_bool (name ^ " some path taken") true (f + s > 0));
      List.iter
        (fun (k, v) ->
          check_bool (name ^ " extra stat key non-empty") true (k <> "");
          check_bool (name ^ " extra stat non-negative") true (v >= 0))
        extra)
    Protocols.all

(* Determinism: the observability output is a pure function of the
   seed. *)
let test_metrics_deterministic () =
  let json () =
    let r =
      Exp_common.run ~seed:21L ~rate:100. ~duration:(Time_ns.sec 6)
        Exp_common.fig7_double Protocols.Multi_paxos
    in
    Metrics.to_json_string r.Domino_shard.Fabric.metrics
  in
  let a = json () and b = json () in
  Alcotest.(check string) "same seed, byte-identical metrics JSON" a b

let read_golden name =
  (* runtest runs with cwd = _build/default/test (goldens staged by the
     dune deps); fall back to the source path for `dune exec` from the
     project root *)
  let path = "golden/" ^ name in
  let path = if Sys.file_exists path then path else "test/" ^ path in
  In_channel.with_open_bin path In_channel.input_all

(* The [--trace-op] query: a focus tap on the run's journal. Returns the
   tree, the journal, and the focused events. *)
let traced ?(capacity = 1) ?rate ~seed ~duration ~nth setting =
  let j = Journal.create ~capacity () in
  let f = Provenance.focus nth in
  Provenance.attach f j;
  ignore
    (Exp_common.run ~seed ?rate ~duration:(Time_ns.sec duration) ~journal:j
       setting Protocols.domino_default);
  let evs = Provenance.focused f in
  (Provenance.span_tree evs, j, evs)

(* The goldens were rendered by the per-op recorder the journal query
   replaced; the trees must stay byte-identical. *)
let test_trace_deterministic () =
  let fig7 () =
    let tree, _, _ =
      traced ~seed:7L ~rate:100. ~duration:8 ~nth:3 Exp_common.fig7_double
    in
    tree
  in
  let a = fig7 () and b = fig7 () in
  Alcotest.(check string) "same seed, identical span tree" a b;
  Alcotest.(check string) "fig7-double op 3 matches its golden"
    (read_golden "fig7-double-domino.trace-op3.tree") a;
  let na3 = read_golden "na3-domino.trace-op7.tree" in
  let tree, _, _ = traced ~seed:42L ~duration:3 ~nth:7 Exp_common.na3 in
  Alcotest.(check string) "na3 op 7 matches its golden" na3 tree;
  (* A ring far smaller than the run: by the end it holds none of the
     focused op's events, yet the tap saw them all. *)
  let tree, j, evs =
    traced ~capacity:4096 ~seed:42L ~duration:3 ~nth:7 Exp_common.na3
  in
  let ring = Journal.to_array j in
  check_bool "ring overwrote the focused op" true
    (Journal.dropped j > 0
    && List.for_all (fun ev -> not (Array.exists (( == ) ev) ring)) evs);
  Alcotest.(check string) "tree exact past ring overflow" na3 tree

let () =
  Alcotest.run "protocols"
    [
      ( "registry",
        [
          Alcotest.test_case "names" `Quick test_registry_names;
          Alcotest.test_case "roundtrip" `Quick test_api_name_roundtrip;
        ] );
      ( "conformance",
        [
          Alcotest.test_case "commits" `Slow test_conformance_commits;
          Alcotest.test_case "stores agree" `Slow test_conformance_stores_agree;
          Alcotest.test_case "direct API" `Slow test_direct_committed_count;
        ] );
      ( "determinism",
        [
          Alcotest.test_case "metrics json" `Slow test_metrics_deterministic;
          Alcotest.test_case "span tree" `Slow test_trace_deterministic;
        ] );
    ]
