(* Tests for the replicated KV store and the Zipfian workload. *)

open Domino_sim
open Domino_smr
open Domino_kv

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

let op ~key ~value = Op.make ~client:0 ~seq:0 ~key ~value

let test_store_apply_get () =
  let s = Store.create () in
  Store.apply s (op ~key:1 ~value:10L);
  Store.apply s (op ~key:2 ~value:20L);
  Store.apply s (op ~key:1 ~value:11L);
  Alcotest.(check (option int64)) "k1 overwritten" (Some 11L) (Store.get s 1);
  Alcotest.(check (option int64)) "k2" (Some 20L) (Store.get s 2);
  Alcotest.(check (option int64)) "missing" None (Store.get s 3);
  check_int "size" 2 (Store.size s);
  check_int "version" 3 (Store.version s)

let test_store_fingerprint_content () =
  let a = Store.create () and b = Store.create () in
  (* Different orders of commuting (different-key) ops converge. *)
  Store.apply a (op ~key:1 ~value:10L);
  Store.apply a (op ~key:2 ~value:20L);
  Store.apply b (op ~key:2 ~value:20L);
  Store.apply b (op ~key:1 ~value:10L);
  check_int "same fingerprint" (Store.fingerprint a) (Store.fingerprint b)

let test_store_fingerprint_same_key_order () =
  let a = Store.create () and b = Store.create () in
  Store.apply a (op ~key:1 ~value:10L);
  Store.apply a (op ~key:1 ~value:11L);
  Store.apply b (op ~key:1 ~value:11L);
  Store.apply b (op ~key:1 ~value:10L);
  check_bool "same-key reorder detected" true
    (Store.fingerprint a <> Store.fingerprint b)

let test_store_fingerprint_late_key () =
  (* The digest covers every binding, not just the first few. *)
  let a = Store.create () and b = Store.create () in
  for key = 1 to 1_000 do
    Store.apply a (op ~key ~value:(Int64.of_int key));
    Store.apply b
      (op ~key ~value:(if key = 1_000 then 0L else Int64.of_int key))
  done;
  check_bool "1,000th key differs" true
    (Store.fingerprint a <> Store.fingerprint b);
  (* Overwriting the binding back restores equality. *)
  Store.apply b (op ~key:1_000 ~value:1_000L);
  Store.apply a (op ~key:1_000 ~value:1_000L);
  check_int "converged again" (Store.fingerprint a) (Store.fingerprint b)

let test_zipf_range () =
  let rng = Rng.create 3L in
  let z = Workload.Zipf.create ~alpha:0.75 ~n:1_000 rng in
  for _ = 1 to 20_000 do
    let k = Workload.Zipf.sample z in
    check_bool "in range" true (k >= 0 && k < 1_000)
  done

let test_zipf_skew () =
  let rng = Rng.create 5L in
  let z = Workload.Zipf.create ~alpha:0.75 ~n:10_000 rng in
  let counts = Array.make 10_000 0 in
  let n = 100_000 in
  for _ = 1 to n do
    let k = Workload.Zipf.sample z in
    counts.(k) <- counts.(k) + 1
  done;
  (* Zipf: key 0 much more popular than the tail. *)
  check_bool "head popular" true (counts.(0) > n / 500);
  let tail = Array.fold_left ( + ) 0 (Array.sub counts 5_000 5_000) in
  check_bool "head beats any tail key" true (counts.(0) > tail / 2_500);
  check_bool "tail still present" true (tail > 0)

let test_zipf_alpha_effect () =
  let rng = Rng.create 7L in
  let sample_head alpha =
    let z = Workload.Zipf.create ~alpha ~n:100_000 rng in
    let hits = ref 0 in
    for _ = 1 to 50_000 do
      if Workload.Zipf.sample z < 10 then incr hits
    done;
    !hits
  in
  let low = sample_head 0.75 and high = sample_head 0.95 in
  check_bool "higher alpha more contention" true (high > low)

let test_zipf_invalid_args () =
  let rng = Rng.create 1L in
  Alcotest.check_raises "n=0" (Invalid_argument "Zipf.create: n must be positive")
    (fun () -> ignore (Workload.Zipf.create ~n:0 rng));
  Alcotest.check_raises "alpha>=1"
    (Invalid_argument "Zipf.create: alpha must be in (0, 1)") (fun () ->
      ignore (Workload.Zipf.create ~alpha:1.2 ~n:10 rng))

let test_workload_rate_and_ids () =
  let engine = Engine.create () in
  let submitted = ref [] in
  let w =
    Workload.create ~rate:100. ~clients:[ 5; 6 ] ~duration:(Time_ns.sec 10)
      ~submit:(fun op -> submitted := op :: !submitted)
      engine
  in
  Engine.run engine;
  let n = Workload.total_submitted w in
  check_int "counter matches" n (List.length !submitted);
  (* 2 clients x 100/s x 10s = ~2000 expected; Poisson spread. *)
  check_bool "rate approx" true (n > 1_600 && n < 2_400);
  (* Sequence numbers are unique per client. *)
  let module S = Set.Make (struct
    type t = int * int

    let compare = compare
  end) in
  let ids =
    List.fold_left
      (fun acc (o : Op.t) -> S.add (o.Op.client, o.Op.seq) acc)
      S.empty !submitted
  in
  check_int "unique ids" n (S.cardinal ids);
  check_bool "only configured clients" true
    (List.for_all (fun (o : Op.t) -> o.Op.client = 5 || o.Op.client = 6) !submitted)

let test_workload_stops_at_duration () =
  let engine = Engine.create () in
  let last = ref 0 in
  let _w =
    Workload.create ~rate:50. ~clients:[ 1 ] ~duration:(Time_ns.sec 2)
      ~submit:(fun _ -> last := Engine.now engine)
      engine
  in
  Engine.run ~until:(Time_ns.sec 10) engine;
  check_bool "no submissions after duration" true (!last <= Time_ns.sec 2)

let () =
  Alcotest.run "kv"
    [
      ( "store",
        [
          Alcotest.test_case "apply/get" `Quick test_store_apply_get;
          Alcotest.test_case "fingerprint content" `Quick test_store_fingerprint_content;
          Alcotest.test_case "fingerprint same-key order" `Quick
            test_store_fingerprint_same_key_order;
          Alcotest.test_case "fingerprint late key" `Quick
            test_store_fingerprint_late_key;
        ] );
      ( "zipf",
        [
          Alcotest.test_case "range" `Quick test_zipf_range;
          Alcotest.test_case "skew" `Quick test_zipf_skew;
          Alcotest.test_case "alpha effect" `Quick test_zipf_alpha_effect;
          Alcotest.test_case "invalid args" `Quick test_zipf_invalid_args;
        ] );
      ( "workload",
        [
          Alcotest.test_case "rate and ids" `Quick test_workload_rate_and_ids;
          Alcotest.test_case "stops at duration" `Quick test_workload_stops_at_duration;
        ] );
    ]
