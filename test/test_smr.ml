(* Tests for the SMR framework: quorum arithmetic, operations, the
   observer/recorder, and message classes. *)

open Domino_sim
open Domino_smr

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

(* --- Quorum --- *)

let test_quorum_sizes () =
  check_int "f(3)" 1 (Quorum.f_of_n 3);
  check_int "f(5)" 2 (Quorum.f_of_n 5);
  check_int "f(7)" 3 (Quorum.f_of_n 7);
  check_int "majority(3)" 2 (Quorum.majority 3);
  check_int "majority(5)" 3 (Quorum.majority 5);
  (* Footnote 1: supermajority = ceil(3f/2)+1. *)
  check_int "super(3)" 3 (Quorum.supermajority 3);
  check_int "super(5)" 4 (Quorum.supermajority 5);
  check_int "super(7)" 6 (Quorum.supermajority 7);
  check_int "epaxos(3)" 2 (Quorum.epaxos_fast 3);
  check_int "epaxos(5)" 4 (Quorum.epaxos_fast 5);
  check_int "pick(3)" 2 (Quorum.recovery_pick_threshold 3);
  check_int "pick(5)" 2 (Quorum.recovery_pick_threshold 5)

let test_quorum_rejects_even () =
  Alcotest.check_raises "even n"
    (Invalid_argument "Quorum.f_of_n: need odd n >= 3") (fun () ->
      ignore (Quorum.f_of_n 4))

let prop_quorum_intersections =
  (* Any two supermajorities intersect in at least q - f nodes, and a
     supermajority intersects any majority — the safety foundations. *)
  QCheck.Test.make ~name:"quorum intersection sizes" ~count:50
    QCheck.(int_range 1 15)
    (fun f ->
      let n = (2 * f) + 1 in
      let q = Quorum.supermajority n in
      let m = Quorum.majority n in
      (2 * q) - n >= Quorum.recovery_pick_threshold n
      && q + m - n >= 1
      && (2 * m) - n >= 1)

(* --- Op --- *)

let test_op_identity_and_conflicts () =
  let a = Op.make ~client:1 ~seq:1 ~key:5 ~value:1L in
  let b = Op.make ~client:1 ~seq:2 ~key:5 ~value:2L in
  let c = Op.make ~client:2 ~seq:1 ~key:9 ~value:3L in
  check_bool "same key conflicts" true (Op.conflicts a b);
  check_bool "different key no conflict" false (Op.conflicts a c);
  check_bool "no self conflict" false (Op.conflicts a a);
  check_int "id order" (-1)
    (compare (Op.compare_id (Op.id a) (Op.id b)) 0)

(* --- Observer.Recorder --- *)

let op ~client ~seq = Op.make ~client ~seq ~key:0 ~value:0L

let test_recorder_commit_latency () =
  let r = Observer.Recorder.create () in
  let obs = Observer.Recorder.observer r () in
  let o = op ~client:7 ~seq:0 in
  Observer.Recorder.note_submit r o ~now:(Time_ns.ms 100);
  obs.Observer.on_commit o ~now:(Time_ns.ms 150);
  let s = Observer.Recorder.commit_latency_ms r in
  Alcotest.(check (float 1e-9)) "50ms" 50. (Domino_stats.Summary.mean s);
  check_int "committed" 1 (Observer.Recorder.committed r)

let test_recorder_dedupes_commits () =
  let r = Observer.Recorder.create () in
  let obs = Observer.Recorder.observer r () in
  let o = op ~client:7 ~seq:0 in
  Observer.Recorder.note_submit r o ~now:0;
  obs.Observer.on_commit o ~now:(Time_ns.ms 10);
  obs.Observer.on_commit o ~now:(Time_ns.ms 99);
  check_int "one commit" 1
    (Domino_stats.Summary.count (Observer.Recorder.commit_latency_ms r));
  Alcotest.(check (float 1e-9)) "first wins" 10.
    (Domino_stats.Summary.mean (Observer.Recorder.commit_latency_ms r))

let test_recorder_measure_window () =
  let r = Observer.Recorder.create () in
  Observer.Recorder.start_measuring r (Time_ns.ms 100);
  Observer.Recorder.stop_measuring r (Time_ns.ms 200);
  let obs = Observer.Recorder.observer r () in
  let early = op ~client:1 ~seq:0 in
  let inside = op ~client:1 ~seq:1 in
  let late = op ~client:1 ~seq:2 in
  Observer.Recorder.note_submit r early ~now:(Time_ns.ms 50);
  Observer.Recorder.note_submit r inside ~now:(Time_ns.ms 150);
  Observer.Recorder.note_submit r late ~now:(Time_ns.ms 250);
  obs.Observer.on_commit early ~now:(Time_ns.ms 160);
  obs.Observer.on_commit inside ~now:(Time_ns.ms 170);
  obs.Observer.on_commit late ~now:(Time_ns.ms 270);
  check_int "only in-window sample" 1
    (Domino_stats.Summary.count (Observer.Recorder.commit_latency_ms r))

let test_recorder_exec_first_replica_by_default () =
  let r = Observer.Recorder.create () in
  let obs = Observer.Recorder.observer r () in
  let o = op ~client:1 ~seq:0 in
  Observer.Recorder.note_submit r o ~now:0;
  obs.Observer.on_execute ~replica:2 o ~now:(Time_ns.ms 30);
  obs.Observer.on_execute ~replica:0 o ~now:(Time_ns.ms 99);
  let s = Observer.Recorder.exec_latency_ms r in
  check_int "one sample" 1 (Domino_stats.Summary.count s);
  Alcotest.(check (float 1e-9)) "first exec" 30. (Domino_stats.Summary.mean s)

let test_recorder_exec_specific_replica () =
  let r = Observer.Recorder.create () in
  let obs =
    Observer.Recorder.observer r ~exec_replica_for:(fun _ -> Some 1) ()
  in
  let o = op ~client:1 ~seq:0 in
  Observer.Recorder.note_submit r o ~now:0;
  obs.Observer.on_execute ~replica:0 o ~now:(Time_ns.ms 10);
  check_int "ignored wrong replica" 0
    (Domino_stats.Summary.count (Observer.Recorder.exec_latency_ms r));
  obs.Observer.on_execute ~replica:1 o ~now:(Time_ns.ms 25);
  Alcotest.(check (float 1e-9)) "selected replica" 25.
    (Domino_stats.Summary.mean (Observer.Recorder.exec_latency_ms r))

let test_recorder_per_client () =
  let r = Observer.Recorder.create () in
  let obs = Observer.Recorder.observer r () in
  let a = op ~client:1 ~seq:0 and b = op ~client:2 ~seq:0 in
  Observer.Recorder.note_submit r a ~now:0;
  Observer.Recorder.note_submit r b ~now:0;
  obs.Observer.on_commit a ~now:(Time_ns.ms 10);
  obs.Observer.on_commit b ~now:(Time_ns.ms 30);
  Alcotest.(check (float 1e-9)) "client 1" 10.
    (Domino_stats.Summary.mean (Observer.Recorder.commit_latency_of_client_ms r 1));
  Alcotest.(check (float 1e-9)) "client 2" 30.
    (Domino_stats.Summary.mean (Observer.Recorder.commit_latency_of_client_ms r 2))

let test_latency_series () =
  let r = Observer.Recorder.create () in
  let obs = Observer.Recorder.observer r () in
  let a = op ~client:1 ~seq:0 in
  Observer.Recorder.note_submit r a ~now:(Time_ns.ms 5);
  obs.Observer.on_commit a ~now:(Time_ns.ms 25);
  match Observer.Recorder.latency_series r with
  | [ (sent, lat) ] ->
    check_int "sent" (Time_ns.ms 5) sent;
    Alcotest.(check (float 1e-9)) "lat" 20. lat
  | _ -> Alcotest.fail "expected one point"

let test_recorder_retry_keeps_first_submit () =
  let r = Observer.Recorder.create () in
  let obs = Observer.Recorder.observer r () in
  let o = op ~client:3 ~seq:4 in
  obs.Observer.on_submit o ~now:(Time_ns.ms 10);
  obs.Observer.on_submit o ~now:(Time_ns.ms 40);
  obs.Observer.on_commit o ~now:(Time_ns.ms 70);
  check_int "one submission" 1 (Observer.Recorder.submitted r);
  Alcotest.(check (float 1e-9)) "from the first submit" 60.
    (Domino_stats.Summary.mean (Observer.Recorder.commit_latency_ms r))

let test_recorder_committed_distinct () =
  let r = Observer.Recorder.create () in
  let obs = Observer.Recorder.observer r () in
  List.iter
    (fun (client, seq) -> obs.Observer.on_commit (op ~client ~seq) ~now:0)
    [ (1, 0); (1, 1); (1, 0); (2, 0); (1, 1) ];
  check_int "distinct ids" 3 (Observer.Recorder.committed r)

let test_recorder_ids_across_clients () =
  (* The same seq from two clients is two operations. *)
  let r = Observer.Recorder.create () in
  let obs = Observer.Recorder.observer r () in
  let a = op ~client:1 ~seq:5 and b = op ~client:2 ~seq:5 in
  obs.Observer.on_submit a ~now:0;
  obs.Observer.on_submit b ~now:(Time_ns.ms 20);
  obs.Observer.on_commit a ~now:(Time_ns.ms 30);
  obs.Observer.on_commit b ~now:(Time_ns.ms 30);
  obs.Observer.on_execute ~replica:0 a ~now:(Time_ns.ms 40);
  obs.Observer.on_execute ~replica:0 b ~now:(Time_ns.ms 40);
  check_int "two submissions" 2 (Observer.Recorder.submitted r);
  check_int "two commits" 2 (Observer.Recorder.committed r);
  Alcotest.(check (list (float 1e-9))) "per-op latencies" [ 30.; 10. ]
    (List.map snd (Observer.Recorder.latency_series r));
  check_int "two exec samples" 2
    (Domino_stats.Summary.count (Observer.Recorder.exec_latency_ms r))

(* --- The ledger's at-most-once filter --- *)

let test_execute_counts_repeats () =
  let r = Observer.Recorder.create () in
  let fresh =
    List.map (fun (client, seq) ->
        Observer.Recorder.execute r ~replica:0 (op ~client ~seq) ~now:0
        <> Observer.Recorder.Repeat)
  in
  Alcotest.(check (list bool)) "first sightings"
    [ true; true; false; true; false; false ]
    (fresh [ (1, 0); (1, 1); (1, 0); (2, 0); (2, 0); (1, 1) ]);
  check_int "repeats" 3 (Observer.Recorder.repeats r)

let test_execute_ids_across_clients () =
  let r = Observer.Recorder.create () in
  let fresh o =
    Observer.Recorder.execute r ~replica:0 o ~now:0 <> Observer.Recorder.Repeat
  in
  check_bool "client 1" true (fresh (op ~client:1 ~seq:9));
  check_bool "client 2, same seq" true (fresh (op ~client:2 ~seq:9));
  check_int "no repeats" 0 (Observer.Recorder.repeats r)

let test_execute_per_replica () =
  (* The filter is per replica, and the sample replica's first
     execution is the one sample, whichever replica ran first. *)
  let r = Observer.Recorder.create () in
  let o = op ~client:4 ~seq:0 in
  let exec replica ms =
    Observer.Recorder.execute r ~replica ~exec_at:1 o ~now:(Time_ns.ms ms)
  in
  Observer.Recorder.note_submit r o ~now:0;
  check_bool "replica 0 first" true (exec 0 10 = Observer.Recorder.Fresh);
  check_bool "replica 1 samples" true (exec 1 20 = Observer.Recorder.Sample 20.);
  check_bool "replica 1 again" true (exec 1 30 = Observer.Recorder.Repeat);
  check_bool "replica 2 first" true (exec 2 40 = Observer.Recorder.Fresh);
  check_int "one repeat" 1 (Observer.Recorder.repeats r);
  check_int "one exec sample" 1
    (Domino_stats.Summary.count (Observer.Recorder.exec_latency_ms r))

let test_commit_returns_every_latency () =
  let r = Observer.Recorder.create () in
  let o = op ~client:4 ~seq:0 in
  check_bool "first submit" true (Observer.Recorder.submit r o ~now:0);
  check_bool "resubmit" false
    (Observer.Recorder.submit r o ~now:(Time_ns.ms 5));
  Alcotest.(check (option (float 1e-9))) "first commit" (Some 10.)
    (Observer.Recorder.commit r o ~now:(Time_ns.ms 10));
  Alcotest.(check (option (float 1e-9))) "duplicate commit" (Some 30.)
    (Observer.Recorder.commit r o ~now:(Time_ns.ms 30));
  Alcotest.(check (option (float 1e-9))) "never submitted" None
    (Observer.Recorder.commit r (op ~client:4 ~seq:1) ~now:(Time_ns.ms 30));
  check_int "commits counted once per op" 2 (Observer.Recorder.committed r);
  check_int "one sample" 1
    (Domino_stats.Summary.count (Observer.Recorder.commit_latency_ms r))

(* --- Quiesce --- *)

let test_quiesce_drained () =
  (* The count reaches zero at 25 ms: the drain sees it on the 30 ms
     poll, with the freeze still on. *)
  let engine = Engine.create () in
  let inflight = ref 2 and frozen = ref false and drained_at = ref (-1) in
  Quiesce.drain engine
    ~freeze:(fun () -> frozen := true)
    ~inflight:(fun () -> !inflight)
    ~unfreeze:(fun () -> Alcotest.fail "a drained quiesce must not unfreeze")
    ~drained:(fun () -> drained_at := Engine.now engine)
    ~aborted:(fun ~left:_ ~queued:_ -> Alcotest.fail "drained, not aborted");
  check_bool "frozen at once" true !frozen;
  Engine.schedule engine ~delay:(Time_ns.ms 25) (fun () -> inflight := 0);
  Engine.run ~until:(Time_ns.sec 3) engine;
  check_int "drained at the first poll after zero" (Time_ns.ms 30) !drained_at

let test_quiesce_deadline () =
  (* One op never finishes: at the deadline the drain unfreezes, reports
     what it released, and gives up. *)
  let engine = Engine.create () in
  let frozen = ref false and aborted = ref None in
  Quiesce.drain engine
    ~freeze:(fun () -> frozen := true)
    ~inflight:(fun () -> 1)
    ~unfreeze:(fun () ->
      frozen := false;
      7)
    ~drained:(fun () -> Alcotest.fail "nothing drained")
    ~aborted:(fun ~left ~queued ->
      aborted := Some (left, queued, Engine.now engine));
  Engine.run ~until:(Time_ns.sec 3) engine;
  check_bool "unfrozen" false !frozen;
  match !aborted with
  | Some (left, queued, at) ->
    check_int "left in flight" 1 left;
    check_int "released submits" 7 queued;
    check_int "aborted at the deadline" Quiesce.deadline at
  | None -> Alcotest.fail "drain never aborted"

type Domino_store.Store.record += Test_config of int

let test_quiesce_persist () =
  (* The barrier acts once, after every store has made the record
     durable. *)
  let engine = Engine.create () in
  let stores =
    List.init 3 (fun node ->
        Domino_store.Store.create engine ~node
          ~params:Domino_store.Store.default_params
          ~journal:Domino_obs.Journal.null)
  in
  let acted = ref 0 in
  Quiesce.persist stores ~kind:"config" (Test_config 1) (fun () ->
      incr acted;
      List.iter
        (fun st ->
          check_int "durable before the act" 1
            (Domino_store.Store.durable_upto st))
        stores);
  check_int "nothing before the fsyncs land" 0 !acted;
  Engine.run engine;
  check_int "acted once" 1 !acted

let () =
  let q = QCheck_alcotest.to_alcotest in
  Alcotest.run "smr"
    [
      ( "quorum",
        [
          Alcotest.test_case "sizes" `Quick test_quorum_sizes;
          Alcotest.test_case "rejects even" `Quick test_quorum_rejects_even;
          q prop_quorum_intersections;
        ] );
      ("op", [ Alcotest.test_case "identity/conflicts" `Quick test_op_identity_and_conflicts ]);
      ( "recorder",
        [
          Alcotest.test_case "commit latency" `Quick test_recorder_commit_latency;
          Alcotest.test_case "dedupes" `Quick test_recorder_dedupes_commits;
          Alcotest.test_case "measure window" `Quick test_recorder_measure_window;
          Alcotest.test_case "exec default replica" `Quick
            test_recorder_exec_first_replica_by_default;
          Alcotest.test_case "exec specific replica" `Quick
            test_recorder_exec_specific_replica;
          Alcotest.test_case "per client" `Quick test_recorder_per_client;
          Alcotest.test_case "latency series" `Quick test_latency_series;
          Alcotest.test_case "retry keeps first submit" `Quick
            test_recorder_retry_keeps_first_submit;
          Alcotest.test_case "committed counts distinct ids" `Quick
            test_recorder_committed_distinct;
          Alcotest.test_case "ids distinct across clients" `Quick
            test_recorder_ids_across_clients;
        ] );
      ( "ledger",
        [
          Alcotest.test_case "execute counts repeats" `Quick
            test_execute_counts_repeats;
          Alcotest.test_case "execute ids across clients" `Quick
            test_execute_ids_across_clients;
          Alcotest.test_case "execute filters per replica" `Quick
            test_execute_per_replica;
          Alcotest.test_case "commit returns every latency" `Quick
            test_commit_returns_every_latency;
        ] );
      ( "quiesce",
        [
          Alcotest.test_case "drained" `Quick test_quiesce_drained;
          Alcotest.test_case "deadline aborts" `Quick test_quiesce_deadline;
          Alcotest.test_case "persist barrier" `Quick test_quiesce_persist;
        ] );
    ]
