(* Unit tests for the simulated stable storage (lib/store): fsync
   barriers cost simulated time, group commit coalesces concurrent
   requests, batched mode holds barriers open, snapshots truncate the
   log, and wipe implements crash-with-amnesia — including the epoch
   guard that kills in-flight completions. Records are the test's own
   constructor, [R n]. *)

open Domino_sim
open Domino_obs
open Domino_store

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

type Store.record += R of int

let r store n = ignore (Store.append store ~kind:"r" (R n))

let r_sync store n k = Store.append_sync store ~kind:"r" (R n) k

let numbers records =
  List.map (function R n -> n | _ -> Alcotest.fail "foreign record") records

let check_records msg expected records =
  Alcotest.(check (list int)) msg expected (numbers records)

let params =
  {
    Store.sync_latency = Time_ns.us 100;
    append_latency = Time_ns.us 1;
    snapshot_latency = Time_ns.ms 1;
    replay_per_record = Time_ns.us 1;
    mode = Store.Immediate;
  }

let mk ?(params = params) () =
  let engine = Engine.create ~seed:1L () in
  (engine, Store.create engine ~node:0 ~params ~journal:Journal.null)

let counter store key =
  match List.assoc_opt key (Store.counters store) with
  | Some v -> v
  | None -> Alcotest.failf "missing counter %s" key

let test_sync_costs_time () =
  let engine, store = mk () in
  r store 1;
  r store 2;
  let done_at = ref (-1) in
  Store.sync store (fun () -> done_at := Engine.now engine);
  check_int "not durable before the barrier completes" 0
    (Store.durable_upto store);
  Engine.run engine;
  (* 100 us fixed + 1 us for each of the two fresh records. *)
  check_int "barrier took sync + per-record time" (Time_ns.us 102) !done_at;
  check_int "disk frontier advanced" 2 (Store.durable_upto store);
  check_int "nothing left unsynced" 0 (Store.unsynced_count store);
  check_int "sync writes counted" 2 (counter store "sync_writes")

let test_group_commit_coalesces () =
  let engine, store = mk () in
  let order = ref [] in
  let cb tag = fun () -> order := (tag, Engine.now engine) :: !order in
  r_sync store 1 (cb "first");
  (* These arrive while the first barrier is in flight: they must
     coalesce into one follow-up barrier, callbacks in request order. *)
  Engine.schedule_at engine ~at:(Time_ns.us 10) (fun () ->
      r_sync store 2 (cb "second");
      r_sync store 3 (cb "third"));
  Engine.run engine;
  (match List.rev !order with
  | [ ("first", t1); ("second", t2); ("third", t3) ] ->
    check_int "first barrier: sync + 1 record" (Time_ns.us 101) t1;
    (* Second barrier starts when the first lands, covers 2 records. *)
    check_int "coalesced barrier lands together" t2 t3;
    check_int "coalesced barrier: sync + 2 records"
      (Time_ns.us 101 + Time_ns.us 102)
      t2
  | _ -> Alcotest.fail "expected three callbacks in request order");
  check_int "two barriers, not three" 2 (counter store "syncs");
  check_int "every record written exactly once" 3 (counter store "sync_writes")

let test_batched_mode_holds_window () =
  let engine, store =
    mk ~params:{ params with Store.mode = Store.Batched (Time_ns.us 50) } ()
  in
  let done_at = ref (-1) in
  r_sync store 1 (fun () -> ());
  Engine.schedule_at engine ~at:(Time_ns.us 20) (fun () ->
      r_sync store 2 (fun () -> done_at := Engine.now engine));
  Engine.run engine;
  (* One barrier for both: window 50 us, then sync + 2 records. *)
  check_int "single batched barrier" 1 (counter store "syncs");
  check_int "barrier held for the window first"
    (Time_ns.us 50 + Time_ns.us 102)
    !done_at

let test_wipe_loses_unsynced_tail () =
  let engine, store = mk () in
  r_sync store 1 (fun () -> ());
  r store 2;
  Engine.run engine;
  r store 3;
  check_int "two records not yet on disk" 2 (Store.unsynced_count store);
  Store.wipe store;
  check_int "appended rewinds to the disk frontier" 1 (Store.appended store);
  check_int "loss counted" 2 (counter store "lost");
  let snap, records = Store.recover store in
  check_bool "no snapshot" true (snap = None);
  check_records "only the synced prefix survives" [ 1 ] records;
  check_bool "recovery span is positive" true (Store.recovery_span store > 0);
  check_int "recovery span recorded" 1
    (List.length (Store.recovery_spans store))

let test_wipe_aborts_inflight_barrier () =
  let engine, store = mk () in
  let fired = ref false in
  r_sync store 1 (fun () -> fired := true);
  (* Wipe while the barrier is in flight: the epoch guard must kill
     both the completion and the pending callback. *)
  Engine.schedule_at engine ~at:(Time_ns.us 10) (fun () -> Store.wipe store);
  Engine.run engine;
  check_bool "callback died with the node" false !fired;
  check_int "nothing became durable" 0 (Store.durable_upto store);
  (* The store remains usable in its next incarnation. *)
  r_sync store 2 (fun () -> fired := true);
  Engine.run engine;
  check_bool "new incarnation syncs fine" true !fired;
  check_int "new record durable" 1 (Store.durable_upto store)

let test_snapshot_truncates_log () =
  let engine, store = mk () in
  r store 1;
  r store 2;
  Store.sync store (fun () -> ());
  Engine.run engine;
  Store.snapshot store "blob" ~upto:2;
  Engine.run engine;
  check_int "covered records truncated" 2 (counter store "truncated");
  Store.wipe store;
  let snap, records = Store.recover store in
  check_bool "snapshot survives the wipe" true (snap = Some "blob");
  check_records "truncated log is empty" [] records;
  check_int "frontier covers the snapshot" 2 (Store.durable_upto store)

(* The [store.*] and [recovery.*] details, built with the journal's
   integer writer only when a journal records: the same bytes the
   [Printf] formats they replaced gave, on both replay paths. *)
let test_journal_details () =
  let engine = Engine.create ~seed:1L () in
  let j = Journal.create () in
  let store = Store.create engine ~node:3 ~params ~journal:(Journal.sink j) in
  ignore (Store.append store ~kind:"put" (R 1));
  Store.append_sync store ~kind:"del" (R 2) (fun () -> ());
  Engine.run engine;
  Store.wipe store;
  ignore (Store.recover store);
  Store.snapshot store "blob" ~upto:2;
  Engine.run engine;
  ignore (Store.append store ~kind:"put" (R 3));
  Store.wipe store;
  ignore (Store.recover store);
  Alcotest.(check (list string))
    "journal lines"
    [
      "@0 store.append node=3 rec=0 kind=put";
      "@0 store.append node=3 rec=1 kind=del";
      "@0 store.sync node=3 recs=2 upto=2 dur_us=102";
      "@0 phase node=3 op=- name=sync_wait dur=102000";
      "@102000 recovery.wipe node=3 lost=0 durable=2";
      "@102000 recovery.replay node=3 snapshot=none records=2 span_us=102";
      "@102000 store.snapshot node=3 upto=2 bytes=4";
      "@1102000 store.truncate node=3 recs=2";
      "@1102000 store.append node=3 rec=2 kind=put";
      "@1102000 recovery.wipe node=3 lost=1 durable=2";
      "@1102000 recovery.replay node=3 snapshot=2 records=0 span_us=1100";
    ]
    (String.split_on_char '\n' (Journal.to_lines j)
    |> List.filter (fun l -> l <> ""))

(* A snapshot may cover records no barrier has synced yet: they become
   durable with it, the frontier jumps to [upto], and records appended
   after the cut stay unsynced. Only synced records count as
   truncated. *)
let test_snapshot_past_durable_frontier () =
  let engine, store = mk () in
  r_sync store 1 (fun () -> ());
  Engine.run engine;
  r store 2;
  r store 3;
  Store.snapshot store "blob" ~upto:3;
  r store 4;
  Engine.run engine;
  check_int "frontier moved to the snapshot" 3 (Store.durable_upto store);
  check_int "only the synced record counts as truncated" 1
    (counter store "truncated");
  check_int "the record after the cut is still unsynced" 1
    (Store.unsynced_count store);
  Store.wipe store;
  check_int "it is the one lost" 1 (counter store "lost");
  let snap, records = Store.recover store in
  check_bool "snapshot survives" true (snap = Some "blob");
  check_records "nothing past the snapshot survived" [] records

(* After a snapshot has moved the log's base, a wipe keeps the synced
   records above it — renumbered from the base, not from zero — and
   appends carry on at the frontier. *)
let test_wipe_after_snapshot_moved_base () =
  let engine, store = mk () in
  List.iter (r store) [ 1; 2; 3 ];
  Store.sync store (fun () -> ());
  Engine.run engine;
  Store.snapshot store "blob" ~upto:2;
  Engine.run engine;
  r_sync store 4 (fun () -> ());
  Engine.run engine;
  r store 5;
  Store.wipe store;
  check_int "appended rewinds to the frontier" 4 (Store.appended store);
  check_int "span counts the two surviving records"
    (Time_ns.us 100 + Time_ns.ms 1 + Time_ns.us 2)
    (Store.recovery_span store);
  let snap, records = Store.recover store in
  check_bool "snapshot survives" true (snap = Some "blob");
  check_records "synced records above the base survive" [ 3; 4 ] records;
  r_sync store 6 (fun () -> ());
  Engine.run engine;
  Store.wipe store;
  check_records "the next incarnation appends after them" [ 3; 4; 6 ]
    (snd (Store.recover store))

(* Recovery hands records back oldest first, across the log's growth
   past its initial capacity and a snapshot that shifts it down. *)
let test_recover_oldest_first () =
  let engine, store = mk () in
  List.iter (r store) (List.init 200 Fun.id);
  Store.sync store (fun () -> ());
  Engine.run engine;
  Store.snapshot store "blob" ~upto:150;
  List.iter (r store) (List.init 100 (fun i -> 200 + i));
  Store.sync store (fun () -> ());
  Engine.run engine;
  Store.wipe store;
  check_records "every record above the snapshot, in append order"
    (List.init 150 (fun i -> 150 + i))
    (snd (Store.recover store))

let () =
  Alcotest.run "store"
    [
      ( "wal",
        [
          Alcotest.test_case "sync costs simulated time" `Quick
            test_sync_costs_time;
          Alcotest.test_case "group commit coalesces" `Quick
            test_group_commit_coalesces;
          Alcotest.test_case "batched mode holds window" `Quick
            test_batched_mode_holds_window;
        ] );
      ( "crash",
        [
          Alcotest.test_case "wipe loses unsynced tail" `Quick
            test_wipe_loses_unsynced_tail;
          Alcotest.test_case "wipe aborts in-flight barrier" `Quick
            test_wipe_aborts_inflight_barrier;
          Alcotest.test_case "snapshot truncates log" `Quick
            test_snapshot_truncates_log;
          Alcotest.test_case "journal details" `Quick test_journal_details;
          Alcotest.test_case "snapshot past the durable frontier" `Quick
            test_snapshot_past_durable_frontier;
          Alcotest.test_case "wipe after a snapshot moved the base" `Quick
            test_wipe_after_snapshot_moved_base;
          Alcotest.test_case "recover returns records oldest first" `Quick
            test_recover_oldest_first;
        ] );
    ]
