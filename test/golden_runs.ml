(* The runs whose journals the md5 goldens under test/golden pin. Shared
   by test_shard, which checks each journal against its golden, and
   gen_golden, which writes the goldens — so the two cannot drift. *)

open Domino_sim
open Domino_obs
open Domino_exp

let parse_exn text =
  match Domino_fault.Plan.parse text with
  | Ok p -> p
  | Error e -> invalid_arg ("Golden_runs plan: " ^ e)

(* The 3 s na3 Domino run behind the na3-domino journal and metrics
   goldens. *)
let na3_domino () =
  let j = Journal.create () in
  let r =
    Exp_common.run ~seed:42L ~duration:(Time_ns.sec 3) ~journal:j
      Exp_common.na3 Exp_common.domino_default
  in
  (j, Metrics.to_json_string r.Exp_common.metrics)

(* A membership change under load: retire replica 2 of a fig7-double
   Domino group, then readmit it (test_fault's reconfig-under-load plan
   and harness settings). *)
let fig7_double_reconfig () =
  let j = Journal.create () in
  ignore
    (Exp_common.run ~seed:5L ~rate:50. ~duration:(Time_ns.sec 6)
       ~measure_from:(Time_ns.ms 500) ~measure_until:(Time_ns.sec 6)
       ~journal:j
       ~faults:
         (parse_exn
            "at 1500ms reconfig group=0 remove=2\n\
             at 3500ms reconfig group=0 add=2\n")
       Exp_common.fig7_double Exp_common.domino_default);
  j

(* A rolling crash-with-amnesia of a fig7-double group (the chaos
   suite's rolling_wipe plan): every replica, the leader/coordinator at
   node 0 last, loses its volatile state and rebuilds from its WAL, so
   the journal pins what each protocol writes and what its replay
   restores. *)
let rolling_wipe proto () =
  let j = Journal.create () in
  ignore
    (Exp_common.run ~seed:42L ~rate:100. ~duration:(Time_ns.sec 5)
       ~measure_from:(Time_ns.ms 500) ~measure_until:(Time_ns.sec 5)
       ~journal:j
       ~faults:
         (parse_exn
            "at 1s wipe node=1\nat 2200ms wipe node=2\nat 3400ms wipe node=0\n")
       Exp_common.fig7_double proto);
  j

(* Two faulted fig7-double runs at test_fault's [run_checked] settings,
   pinned by journal md5, metrics JSON and the group's [extra] counters
   ([<name>.extra], one "key value" line each): the Multi-Paxos
   partition drives the harness retry and the at-most-once execution
   filter ([harness_retries], [dedup_suppressed]); the Domino leader
   crash (test/plans/leader_crash.plan) drives Domino's in-protocol
   resends and [run.retries]. *)
let faulted ~plan ~duration proto () =
  let j = Journal.create () in
  let r =
    Exp_common.run ~seed:5L ~rate:50. ~duration ~measure_from:(Time_ns.ms 500)
      ~measure_until:duration ~journal:j ~faults:(parse_exn plan)
      Exp_common.fig7_double proto
  in
  let extra =
    String.concat ""
      (List.map (fun (k, v) -> Printf.sprintf "%s %d\n" k v) r.Exp_common.extra)
  in
  (j, Metrics.to_json_string r.Exp_common.metrics, extra)

let faulted_runs =
  [
    ( "harness-retry-partition",
      faulted ~plan:"at 1s partition a=3 b=0 sym until=2200ms\n"
        ~duration:(Time_ns.sec 4) Exp_common.Multi_paxos );
    ( "domino-leader-crash",
      faulted ~plan:"at 1500ms crash node=0\nat 3s recover node=0\n"
        ~duration:(Time_ns.sec 6) Exp_common.domino_default );
  ]

let faulted_journal name () =
  let j, _, _ = (List.assoc name faulted_runs) () in
  j

(* Every journal golden: [<name>.journal.md5] holds the md5 of the
   rendered journal, [<name>.journal.head] its first five lines for a
   reader diagnosing a mismatch. *)
let journals =
  [
    ("fig8a-smoke", fun () -> Exp_fig8.smoke_journal ~seed:42L Exp_fig8.Na3);
    ("na3-domino", fun () -> fst (na3_domino ()));
    (* a rolling patch of a fig7-double Domino group: each node's duties
       are handed off before its wipe *)
    ("patch-smoke", fun () -> Exp_patch.smoke_journal ~seed:42L ());
    (* a planned slot migration on the 2-group rebalance layout *)
    ("rebalance-smoke", fun () -> Exp_rebalance.smoke_journal ~seed:42L ());
    ("fig7-double-reconfig", fig7_double_reconfig);
    ("epaxos-rolling-wipe", rolling_wipe Exp_common.Epaxos);
    ("mencius-rolling-wipe", rolling_wipe Exp_common.Mencius);
    ("fastpaxos-rolling-wipe", rolling_wipe Exp_common.Fast_paxos);
    ("multipaxos-rolling-wipe", rolling_wipe Exp_common.Multi_paxos);
    ("harness-retry-partition", faulted_journal "harness-retry-partition");
    ("domino-leader-crash", faulted_journal "domino-leader-crash");
  ]

let md5 lines = Digest.to_hex (Digest.string lines)

let head lines =
  let buf = Buffer.create 512 in
  List.iteri
    (fun i l ->
      if i < 5 then begin
        Buffer.add_string buf l;
        Buffer.add_char buf '\n'
      end)
    (String.split_on_char '\n' lines);
  Buffer.contents buf
