(* A fixed reference workload, timed next to every measured run.

   On a shared host other tenants contend for the caches and memory
   bus, and identical runs slow down by up to 2x for minutes at a time;
   the process's CPU time grows with its wall time, so it is the
   machine that runs slower, not the scheduler that runs us less. This
   kernel slows down with it, and it shares no code with the library:
   only the standard library's Hashtbl and Map, a list, and random
   accesses over a 32 MB Bigarray (outside the OCaml heap, so it adds
   nothing to the workload's peak heap). Dividing a run's time by the
   kernel's time cancels most of the host's speed, and the benchmark
   reports that ratio times [reference_s]: seconds on a host where the
   kernel takes [reference_s]. *)

let reference_s = 0.1

module Int_map = Map.Make (Int)

let span_bits = 22

let span =
  lazy
    (let a = Bigarray.Array1.create Bigarray.int Bigarray.c_layout (1 lsl span_bits) in
     Bigarray.Array1.fill a 0;
     a)

let next x = (x * 1103515245 + 12345) land 0x3FFFFFFF

(* Allocation and hashing over a small table. *)
let table () =
  let h = Hashtbl.create 1024 in
  let x = ref 12345 and acc = ref [] in
  for i = 0 to 200_000 do
    x := next !x;
    let k = !x land 0xFFFF in
    (match Hashtbl.find_opt h k with
    | Some v -> Hashtbl.replace h k (v + i)
    | None -> Hashtbl.add h k i);
    if i land 7 = 0 then acc := (i, k) :: !acc;
    if i land 0xFFFF = 0 then acc := []
  done;
  ignore (Sys.opaque_identity (h, !acc))

(* Cache misses over the span, plus a persistent map. *)
let scatter () =
  let a = Lazy.force span in
  let x = ref 987 and m = ref Int_map.empty in
  for i = 0 to 150_000 do
    x := next !x;
    let k = !x land ((1 lsl span_bits) - 1) in
    Bigarray.Array1.unsafe_set a k (Bigarray.Array1.unsafe_get a k + i);
    m := Int_map.add (k land 0x3FFFF) i !m;
    if i land 0x3FFF = 0 then m := Int_map.empty
  done;
  ignore (Sys.opaque_identity !m)

let time () =
  ignore (Lazy.force span);
  let t0 = Ledger.now () in
  table ();
  scatter ();
  Ledger.now () -. t0
