(* Registry-driven conformance tests for the unified protocol API:
   every registered protocol runs the same smoke scenario through
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

(* [Protocols] registers every protocol while it initialises, so the
   registry is full before any test runs. *)
let all_names () = Protocol_intf.names ()

let test_registry_names () =
  Alcotest.(check (list string))
    "all five protocols registered, sorted"
    [ "domino"; "epaxos"; "fastpaxos"; "mencius"; "multipaxos" ]
    (all_names ())

let test_api_name_roundtrip () =
  List.iter
    (fun n ->
      match Protocols.of_api_name n with
      | None -> Alcotest.failf "of_api_name %s = None" n
      | Some p ->
        Alcotest.(check string) "roundtrip" n (Protocols.api_name p);
        check_bool "resolvable" true
          (let (module P : Protocol_intf.S) = Protocols.resolve p in
           P.name = n))
    (all_names ());
  check_bool "unknown name rejected" true (Protocols.of_api_name "nope" = None)

(* Conformance through the experiment harness: identical smoke scenario
   for every protocol, dispatched purely by registry name. *)
let smoke name =
  match Protocols.of_api_name name with
  | None -> Alcotest.failf "unregistered protocol %s" name
  | Some proto ->
    Exp_common.run ~seed:11L ~rate:100. ~duration:(Time_ns.sec 8)
      Exp_common.fig7_double proto

let test_conformance_commits () =
  List.iter
    (fun name ->
      let r = smoke name in
      check_bool
        (name ^ " commits operations")
        true
        (Observer.Recorder.committed r.Exp_common.recorder > 0);
      (match Metrics.find_counter r.Exp_common.metrics "run.committed" with
      | Some c -> check_bool (name ^ " run.committed > 0") true
                    (Metrics.counter_value c > 0)
      | None -> Alcotest.failf "%s: no run.committed counter" name);
      match
        Metrics.find_counter r.Exp_common.metrics
          (name ^ ".msg.proposal.sent")
      with
      | Some c ->
        check_bool (name ^ " sends proposals") true (Metrics.counter_value c > 0)
      | None -> Alcotest.failf "%s: no %s.msg.proposal.sent counter" name name)
    (all_names ())

let test_conformance_stores_agree () =
  List.iter
    (fun name ->
      let r = smoke name in
      match r.Exp_common.store_fingerprints with
      | [] -> Alcotest.failf "%s: no store fingerprints" name
      | fp :: rest ->
        check_int (name ^ " has one fingerprint per replica") 3
          (List.length r.Exp_common.store_fingerprints);
        List.iter
          (fun fp' ->
            check_bool (name ^ " replicas executed identically") true
              (fp = fp'))
          rest)
    (all_names ())

(* Conformance straight against Protocol_intf.S, no harness: a
   hand-built env, a short workload, and the module's own accessors. *)
let direct_run name =
  match Protocol_intf.find name with
  | None -> Alcotest.failf "unregistered protocol %s" name
  | Some (module P : Protocol_intf.S) ->
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
    let cluster =
      {
        Protocol_intf.Cluster.engine;
        topo = Topology.na;
        metrics = Metrics.create ();
        journal = Journal.null;
      }
    in
    let env =
      {
        Protocol_intf.Group.cluster;
        prefix = "";
        make_net =
          (fun () -> Topology.make_net engine Topology.na ~placement ());
        replicas;
        leader = 0;
        coordinator_of = (fun c -> replicas.(c mod Array.length replicas));
        observer;
        stores =
          Array.map
            (fun node ->
              Domino_store.Store.create engine ~node
                ~params:Domino_store.Store.default_params
                ~journal:Journal.null)
            replicas;
        params = Protocol_intf.default_params;
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
    (fun name ->
      let committed, fast_slow, extra = direct_run name in
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
    (all_names ())

(* Determinism: the observability output is a pure function of the
   seed. *)
let test_metrics_deterministic () =
  let json () =
    let r =
      Exp_common.run ~seed:21L ~rate:100. ~duration:(Time_ns.sec 6)
        Exp_common.fig7_double Exp_common.Multi_paxos
    in
    Metrics.to_json_string r.Exp_common.metrics
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
       setting Exp_common.domino_default);
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
