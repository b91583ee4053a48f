(* Tests for the replicated-log structures: positions, compressed
   interval sets and the execution engine. *)

open Domino_log

let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)

(* --- Position --- *)

let test_position_ordering () =
  let n = 3 in
  let dm0 = Position.dm ~replica:0 100 in
  let dm2 = Position.dm ~replica:2 100 in
  let dfp = Position.dfp ~n_replicas:n 100 in
  let dfp_99 = Position.dfp ~n_replicas:n 99 in
  check_bool "dm before dfp at same ts" true (Position.compare dm0 dfp < 0);
  check_bool "dm lanes ordered" true (Position.compare dm0 dm2 < 0);
  check_bool "earlier ts first" true (Position.compare dfp_99 dm0 < 0);
  check_bool "equal" true (Position.equal dm0 (Position.dm ~replica:0 100))

let prop_position_total_order =
  QCheck.Test.make ~name:"position compare is a total order" ~count:300
    QCheck.(triple (pair small_nat small_nat) (pair small_nat small_nat) (pair small_nat small_nat))
    (fun ((t1, l1), (t2, l2), (t3, l3)) ->
      let a = { Position.ts = t1; lane = l1 } in
      let b = { Position.ts = t2; lane = l2 } in
      let c = { Position.ts = t3; lane = l3 } in
      let ( <= ) x y = Position.compare x y <= 0 in
      (* antisymmetry + transitivity spot checks *)
      (not (a <= b && b <= a) || Position.equal a b)
      && (not (a <= b && b <= c) || a <= c))

(* --- Interval_set --- *)

let test_interval_basic () =
  let s = Interval_set.empty |> Interval_set.add 5 |> Interval_set.add 7 in
  check_bool "mem 5" true (Interval_set.mem 5 s);
  check_bool "not mem 6" false (Interval_set.mem 6 s);
  check_int "two ranges" 2 (Interval_set.range_count s);
  let s = Interval_set.add 6 s in
  check_int "merged" 1 (Interval_set.range_count s);
  check_int "cardinal" 3 (Interval_set.cardinal s)

let test_interval_range_merge () =
  let s = Interval_set.add_range ~lo:1 ~hi:10 Interval_set.empty in
  let s = Interval_set.add_range ~lo:5 ~hi:20 s in
  check_int "one range" 1 (Interval_set.range_count s);
  check_int "cardinal" 20 (Interval_set.cardinal s);
  Alcotest.(check (list (pair int int))) "ranges" [ (1, 20) ]
    (Interval_set.to_ranges s)

let test_interval_adjacent_merge () =
  let s = Interval_set.add_range ~lo:1 ~hi:5 Interval_set.empty in
  let s = Interval_set.add_range ~lo:6 ~hi:9 s in
  check_int "adjacent merge" 1 (Interval_set.range_count s)

let test_interval_next_gap () =
  let s = Interval_set.add_range ~lo:0 ~hi:4 Interval_set.empty in
  let s = Interval_set.add_range ~lo:7 ~hi:9 s in
  check_int "gap after prefix" 5 (Interval_set.next_gap s 0);
  check_int "gap at uncovered" 5 (Interval_set.next_gap s 5);
  check_int "gap after second" 10 (Interval_set.next_gap s 8)

let test_interval_covered_from () =
  let s = Interval_set.add_range ~lo:3 ~hi:8 Interval_set.empty in
  Alcotest.(check (option int)) "inside" (Some 8) (Interval_set.covered_from s 5);
  Alcotest.(check (option int)) "outside" None (Interval_set.covered_from s 9)

let test_interval_empty_range () =
  let s = Interval_set.add_range ~lo:10 ~hi:5 Interval_set.empty in
  check_bool "still empty" true (Interval_set.is_empty s)

module Iset = Set.Make (Int)

let prop_interval_matches_naive =
  QCheck.Test.make ~name:"interval set = naive set" ~count:300
    QCheck.(list (pair (int_bound 60) (int_bound 8)))
    (fun ranges ->
      let s =
        List.fold_left
          (fun acc (lo, len) -> Interval_set.add_range ~lo ~hi:(lo + len) acc)
          Interval_set.empty ranges
      in
      let naive =
        List.fold_left
          (fun acc (lo, len) ->
            List.fold_left (fun acc x -> Iset.add x acc) acc
              (List.init (len + 1) (fun i -> lo + i)))
          Iset.empty ranges
      in
      let ok_membership =
        List.for_all (fun x -> Interval_set.mem x s = Iset.mem x naive)
          (List.init 80 Fun.id)
      in
      ok_membership && Interval_set.cardinal s = Iset.cardinal naive)

let prop_interval_ranges_are_maximal =
  QCheck.Test.make ~name:"stored ranges are disjoint and maximal" ~count:300
    QCheck.(list (pair (int_bound 60) (int_bound 8)))
    (fun ranges ->
      let s =
        List.fold_left
          (fun acc (lo, len) -> Interval_set.add_range ~lo ~hi:(lo + len) acc)
          Interval_set.empty ranges
      in
      let rec ok = function
        | [] | [ _ ] -> true
        | (_, hi1) :: ((lo2, _) :: _ as rest) -> lo2 > hi1 + 1 && ok rest
      in
      ok (Interval_set.to_ranges s))

(* --- Exec_engine --- *)

let mk_engine ?(n_lanes = 2) () =
  let log = ref [] in
  let eng =
    Exec_engine.create ~n_lanes ~on_exec:(fun pos op ->
        log := (pos.Position.ts, pos.Position.lane, op) :: !log)
  in
  (eng, log)

let test_exec_waits_for_watermarks () =
  let eng, log = mk_engine () in
  Exec_engine.decide_op eng { Position.ts = 10; lane = 0 } "a";
  Alcotest.(check int) "blocked" 0 (List.length !log);
  Exec_engine.set_watermark eng ~lane:0 9;
  (* lane 1 still at -1: positions (..,1) below (10,0)? lane 1 needs
     watermark >= 9 (ts-1). *)
  Alcotest.(check int) "still blocked on lane 1" 0 (List.length !log);
  Exec_engine.set_watermark eng ~lane:1 9;
  Alcotest.(check (list (triple int int string))) "executed" [ (10, 0, "a") ]
    (List.rev !log)

let test_exec_lane_order_at_equal_ts () =
  let eng, log = mk_engine () in
  Exec_engine.set_watermark eng ~lane:0 9;
  Exec_engine.set_watermark eng ~lane:1 9;
  (* The DFP-lane decision arrives first but must wait for the DM lane
     at the same timestamp (DM positions order before DFP, §5.5); once
     the DM decision executes it extends lane 0's coverage to 10. *)
  Exec_engine.decide_op eng { Position.ts = 10; lane = 1 } "dfp";
  Alcotest.(check int) "dfp waits for dm lane" 0 (List.length !log);
  Exec_engine.decide_op eng { Position.ts = 10; lane = 0 } "dm";
  Alcotest.(check (list (triple int int string))) "dm executes before dfp"
    [ (10, 0, "dm"); (10, 1, "dfp") ]
    (List.rev !log)

let test_exec_interleaves_lanes () =
  let eng, log = mk_engine () in
  Exec_engine.decide_op eng { Position.ts = 5; lane = 0 } "a";
  Exec_engine.decide_op eng { Position.ts = 3; lane = 1 } "b";
  Exec_engine.decide_op eng { Position.ts = 7; lane = 1 } "c";
  Exec_engine.set_watermark eng ~lane:0 10;
  Exec_engine.set_watermark eng ~lane:1 10;
  Alcotest.(check (list (triple int int string))) "timestamp order"
    [ (3, 1, "b"); (5, 0, "a"); (7, 1, "c") ]
    (List.rev !log)

let test_exec_noop_decision_unblocks () =
  let eng, log = mk_engine () in
  Exec_engine.decide_noop eng { Position.ts = 5; lane = 0 };
  Exec_engine.decide_op eng { Position.ts = 6; lane = 0 } "x";
  Exec_engine.set_watermark eng ~lane:0 4;
  Exec_engine.set_watermark eng ~lane:1 6;
  (* noop at 5 covers the gap; op at 6 runs once lane 0's prefix is
     complete (watermark 4 + explicit noop at 5). *)
  Alcotest.(check (list (triple int int string))) "executed" [ (6, 0, "x") ]
    (List.rev !log);
  Alcotest.(check int) "one op executed" 1 (Exec_engine.executed_ops eng)

let test_exec_duplicate_decisions () =
  let eng, log = mk_engine () in
  Exec_engine.set_watermark eng ~lane:1 100;
  Exec_engine.decide_op eng { Position.ts = 5; lane = 0 } "x";
  Exec_engine.decide_op eng { Position.ts = 5; lane = 0 } "x";
  Alcotest.(check int) "one pending" 1 (Exec_engine.pending_ops eng);
  Exec_engine.set_watermark eng ~lane:0 4;
  Exec_engine.decide_op eng { Position.ts = 5; lane = 0 } "x";
  Alcotest.(check int) "executed once" 1 (List.length !log);
  Alcotest.(check int) "no late decisions" 0 (Exec_engine.late_decisions eng)

(* The executed timestamps are pruned against the lowest watermark over
   all lanes once more than 4096 are held; a duplicate of a pruned
   position then counts as late, one of a held position does not. *)
let test_exec_seen_prune () =
  let eng, log = mk_engine () in
  Exec_engine.decide_op eng { Position.ts = 3000; lane = 1 } "dfp";
  Exec_engine.set_watermark eng ~lane:1 10_000;
  for ts = 0 to 4999 do
    Exec_engine.decide_op eng { Position.ts; lane = 0 } "dm"
  done;
  Alcotest.(check int) "all executed" 5001 (List.length !log);
  Alcotest.(check int) "all held" 5001 (Exec_engine.executed_held eng);
  (* Lane 0's watermark is the lowest: everything at or below 2000 goes,
     on every lane. *)
  Exec_engine.set_watermark eng ~lane:0 2000;
  Alcotest.(check int) "held after prune" 3000 (Exec_engine.executed_held eng);
  Exec_engine.decide_op eng { Position.ts = 3000; lane = 1 } "dfp";
  Exec_engine.decide_op eng { Position.ts = 2001; lane = 0 } "dm";
  Alcotest.(check int) "held duplicates are not late" 0
    (Exec_engine.late_decisions eng);
  Exec_engine.decide_op eng { Position.ts = 2000; lane = 0 } "dm";
  Alcotest.(check int) "a pruned duplicate is late" 1
    (Exec_engine.late_decisions eng);
  Alcotest.(check int) "nothing re-executed" 5001 (List.length !log)

let test_exec_late_decision_detected () =
  let eng, _log = mk_engine () in
  Exec_engine.set_watermark eng ~lane:0 100;
  Exec_engine.set_watermark eng ~lane:1 100;
  (* Position 50/lane0 was covered as noop; an op decision now is a
     protocol-safety violation and must be counted. *)
  Exec_engine.decide_op eng { Position.ts = 50; lane = 0 } "too late";
  Alcotest.(check int) "late" 1 (Exec_engine.late_decisions eng)

let test_exec_watermark_monotone () =
  let eng, _ = mk_engine () in
  Exec_engine.set_watermark eng ~lane:0 50;
  Exec_engine.set_watermark eng ~lane:0 10;
  Alcotest.(check int) "keeps max" 50 (Exec_engine.watermark eng ~lane:0)

let test_exec_pending_count () =
  let eng, _ = mk_engine () in
  Exec_engine.decide_op eng { Position.ts = 5; lane = 0 } "x";
  Exec_engine.decide_op eng { Position.ts = 9; lane = 1 } "y";
  Alcotest.(check int) "pending" 2 (Exec_engine.pending_ops eng)

(* One lane of dense slots, as Multi-Paxos and Fast Paxos drive it:
   slots that arrive out of order execute in slot order, coverage is
   the contiguous decided prefix, and a slot parked behind a gap reads
   as pending. *)
let test_exec_single_lane_slots () =
  let eng, log = mk_engine ~n_lanes:1 () in
  let slot ts = { Position.ts; lane = 0 } in
  let covered () = Exec_engine.covered eng ~lane:0 in
  check_int "nothing covered" (-1) (covered ());
  Exec_engine.decide_op eng (slot 2) "c";
  Exec_engine.decide_op eng (slot 1) "b";
  check_bool "slot 2 parked" true (Exec_engine.is_pending eng (slot 2));
  check_bool "slot 0 undecided" false (Exec_engine.is_pending eng (slot 0));
  check_int "gap at slot 0" (-1) (covered ());
  check_int "both wait" 2 (Exec_engine.pending_ops eng);
  Exec_engine.decide_op eng (slot 0) "a";
  Alcotest.(check (list (triple int int string))) "slot order"
    [ (0, 0, "a"); (1, 0, "b"); (2, 0, "c") ]
    (List.rev !log);
  check_int "contiguous prefix" 2 (covered ());
  check_bool "executed is not pending" false (Exec_engine.is_pending eng (slot 2));
  Exec_engine.set_watermark eng ~lane:0 (covered ());
  Exec_engine.decide_op eng (slot 4) "e";
  check_int "stops at the gap" 2 (covered ());
  check_bool "slot 4 parked" true (Exec_engine.is_pending eng (slot 4));
  Exec_engine.decide_noop eng (slot 3);
  check_int "no-op fills the gap" 4 (covered ());
  check_int "nothing waits" 0 (Exec_engine.pending_ops eng);
  check_int "four ops ran" 4 (List.length !log)

let prop_exec_runs_in_position_order =
  (* Feed random decisions + watermarks; whatever executes must come
     out in strictly increasing position order. *)
  QCheck.Test.make ~name:"execution follows global position order" ~count:200
    QCheck.(list (pair (int_bound 50) (int_bound 2)))
    (fun decisions ->
      let order = ref [] in
      let eng =
        Exec_engine.create ~n_lanes:3 ~on_exec:(fun pos _ ->
            order := pos :: !order)
      in
      (* Dedup positions: one decision per (ts,lane). *)
      let seen = Hashtbl.create 16 in
      List.iter
        (fun (ts, lane) ->
          if not (Hashtbl.mem seen (ts, lane)) then begin
            Hashtbl.replace seen (ts, lane) ();
            Exec_engine.decide_op eng { Position.ts; lane } ()
          end)
        decisions;
      (* Raise watermarks gradually across lanes. *)
      List.iter
        (fun w ->
          Exec_engine.set_watermark eng ~lane:(w mod 3) (w * 2))
        (List.init 30 Fun.id);
      List.iter (fun l -> Exec_engine.set_watermark eng ~lane:l 100) [ 0; 1; 2 ];
      let rec sorted = function
        | [] | [ _ ] -> true
        | a :: (b :: _ as rest) -> Position.compare a b < 0 && sorted rest
      in
      sorted (List.rev !order) && Exec_engine.late_decisions eng = 0)

(* --- Exec_engine = reference engine --- *)

(* Actions against a moving base timestamp, so long runs keep deciding
   fresh positions while short ones revisit old ones. *)
type exec_action =
  | Dec of int * int * bool  (** lane, offset from base, op (else noop) *)
  | Wm of int * int  (** lane, offset from base *)
  | Noop_above of int * int
      (** lane, k: a noop at the lane's watermark + 1 + k *)
  | Old of int * int  (** lane, distance below base: a late or duplicate op *)
  | Advance of int
  | Burst of int * int * bool list
      (** lane, n: ops at base .. base+n-1 on [lane]; each other lane is
          covered either by a watermark raise or (when its flag is set)
          by explicit no-ops; then base moves past the burst *)

let pp_exec_action = function
  | Dec (l, o, op) ->
    Printf.sprintf "dec(l%d,+%d,%s)" l o (if op then "op" else "noop")
  | Wm (l, o) -> Printf.sprintf "wm(l%d,+%d)" l o
  | Noop_above (l, k) -> Printf.sprintf "noop_above(l%d,%d)" l k
  | Old (l, b) -> Printf.sprintf "old(l%d,-%d)" l b
  | Advance d -> Printf.sprintf "advance(%d)" d
  | Burst (l, n, _) -> Printf.sprintf "burst(l%d,%d)" l n

let exec_actions_arb ~long =
  let open QCheck.Gen in
  let gen =
    int_range 1 4 >>= fun n_lanes ->
    let lane = int_bound (n_lanes - 1) in
    let small =
      frequency
        [
          ( 6,
            map3 (fun l o op -> Dec (l, o, op)) lane (int_range (-6) 16) bool
          );
          (4, map2 (fun l o -> Wm (l, o)) lane (int_range (-4) 16));
          (2, map2 (fun l k -> Noop_above (l, k)) lane (int_bound 2));
          ( 2,
            map2
              (fun l b -> Old (l, b))
              lane
              (int_range 1 (if long then 6000 else 20)) );
          (1, map (fun d -> Advance d) (int_bound 12));
        ]
    in
    let burst =
      map3
        (fun l n flags -> Burst (l, n, flags))
        lane (int_range 700 1400) (list_repeat n_lanes bool)
    in
    let steps =
      if long then
        list_size (int_range 5 8)
          (pair burst (list_size (int_bound 12) small))
        >|= List.concat_map (fun (b, rest) -> b :: rest)
      else list_size (int_bound 80) small
    in
    pair (return n_lanes) steps
  in
  QCheck.make gen ~print:(fun (n, acts) ->
      Printf.sprintf "%d lanes: %s" n
        (String.concat " " (List.map pp_exec_action acts)))

let prop_exec_matches_reference ~long =
  QCheck.Test.make
    ~name:
      (if long then "engine = reference past the seen-prune"
       else "engine = reference on random interleavings")
    ~count:(if long then 25 else 500)
    (exec_actions_arb ~long)
    (fun (n_lanes, actions) ->
      let ran_a = Queue.create () and ran_b = Queue.create () in
      let a =
        Exec_engine.create ~n_lanes ~on_exec:(fun pos op ->
            Queue.push (pos, op) ran_a)
      in
      let b =
        Reference_exec_engine.create ~n_lanes ~on_exec:(fun pos op ->
            Queue.push (pos, op) ran_b)
      in
      let take q =
        let l = List.of_seq (Queue.to_seq q) in
        Queue.clear q;
        l
      in
      let step = ref 0 and last = ref { Position.ts = 0; lane = 0 } in
      (* Pending is probed at the last decided position and just above
         each lane's coverage, where parked decisions sit. *)
      let probes () =
        !last
        :: List.concat_map
             (fun lane ->
               let c = Exec_engine.covered a ~lane in
               List.init 3 (fun k -> { Position.ts = c + 1 + k; lane }))
             (List.init n_lanes Fun.id)
      in
      let agree what =
        incr step;
        let ea = take ran_a and eb = take ran_b in
        let same =
          ea = eb
          && Exec_engine.frontier a = Reference_exec_engine.frontier b
          && Exec_engine.executed_ops a = Reference_exec_engine.executed_ops b
          && Exec_engine.pending_ops a = Reference_exec_engine.pending_ops b
          && Exec_engine.late_decisions a
             = Reference_exec_engine.late_decisions b
          && List.for_all
               (fun lane ->
                 Exec_engine.watermark a ~lane
                 = Reference_exec_engine.watermark b ~lane
                 && Exec_engine.covered a ~lane
                    = Reference_exec_engine.covered b ~lane)
               (List.init n_lanes Fun.id)
          && List.for_all
               (fun pos ->
                 Exec_engine.is_pending a pos
                 = Reference_exec_engine.is_pending b pos)
               (probes ())
        in
        if not same then
          QCheck.Test.fail_reportf "diverged at call %d (%s)" !step (what ())
      in
      let next_op = ref 0 in
      let decide ts lane op =
        let pos = { Position.ts; lane } in
        last := pos;
        if op then begin
          incr next_op;
          Exec_engine.decide_op a pos !next_op;
          Reference_exec_engine.decide_op b pos !next_op
        end
        else begin
          Exec_engine.decide_noop a pos;
          Reference_exec_engine.decide_noop b pos
        end;
        agree (fun () -> Format.asprintf "decide %a" Position.pp pos)
      in
      let raise_wm lane ts =
        Exec_engine.set_watermark a ~lane ts;
        Reference_exec_engine.set_watermark b ~lane ts;
        agree (fun () -> Printf.sprintf "watermark l%d %d" lane ts)
      in
      let base = ref 0 in
      List.iter
        (function
          | Dec (l, o, op) -> decide (!base + o) l op
          | Wm (l, o) -> raise_wm l (!base + o)
          | Noop_above (l, k) ->
            decide (Exec_engine.watermark a ~lane:l + 1 + k) l false
          | Old (l, back) -> decide (!base - back) l true
          | Advance d -> base := !base + d
          | Burst (l, n, flags) ->
            for i = 0 to n - 1 do
              decide (!base + i) l true
            done;
            List.iteri
              (fun l' explicit ->
                if l' <> l then
                  if explicit then
                    for i = 0 to n - 1 do
                      decide (!base + i) l' false
                    done
                  else raise_wm l' (!base + n - 1))
              flags;
            base := !base + n)
        actions;
      true)

let () =
  let q = QCheck_alcotest.to_alcotest in
  Alcotest.run "log"
    [
      ( "position",
        [
          Alcotest.test_case "ordering" `Quick test_position_ordering;
          q prop_position_total_order;
        ] );
      ( "interval_set",
        [
          Alcotest.test_case "basic" `Quick test_interval_basic;
          Alcotest.test_case "range merge" `Quick test_interval_range_merge;
          Alcotest.test_case "adjacent merge" `Quick test_interval_adjacent_merge;
          Alcotest.test_case "next gap" `Quick test_interval_next_gap;
          Alcotest.test_case "covered_from" `Quick test_interval_covered_from;
          Alcotest.test_case "empty range" `Quick test_interval_empty_range;
          q prop_interval_matches_naive;
          q prop_interval_ranges_are_maximal;
        ] );
      ( "exec_engine",
        [
          Alcotest.test_case "waits for watermarks" `Quick test_exec_waits_for_watermarks;
          Alcotest.test_case "lane order at equal ts" `Quick
            test_exec_lane_order_at_equal_ts;
          Alcotest.test_case "interleaves lanes" `Quick test_exec_interleaves_lanes;
          Alcotest.test_case "noop decisions" `Quick test_exec_noop_decision_unblocks;
          Alcotest.test_case "duplicates" `Quick test_exec_duplicate_decisions;
          Alcotest.test_case "seen prune" `Quick test_exec_seen_prune;
          Alcotest.test_case "late decisions detected" `Quick
            test_exec_late_decision_detected;
          Alcotest.test_case "watermark monotone" `Quick test_exec_watermark_monotone;
          Alcotest.test_case "pending count" `Quick test_exec_pending_count;
          Alcotest.test_case "single lane of slots" `Quick
            test_exec_single_lane_slots;
          q prop_exec_runs_in_position_order;
          q (prop_exec_matches_reference ~long:false);
          q (prop_exec_matches_reference ~long:true);
        ] );
    ]
