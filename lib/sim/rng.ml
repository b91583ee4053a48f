(* SplitMix64 (Steele, Lea, Flood 2014), computed on native ints.

   The state and output mix are 64-bit quantities, but OCaml's [int64]
   is boxed: the obvious implementation allocates ~9 short-lived boxes
   per draw, and the simulator draws once or twice per event. Instead
   the 64-bit words are carried as two 32-bit halves in untagged
   native ints (63-bit, so every intermediate below fits), and the
   64-bit multiplies by the two mix constants are done in 16-bit limbs.
   Bit-for-bit identical to the [Int64] reference formulation — the
   golden-journal tests pin this. *)

type t = {
  mutable hi : int;  (** state bits 32..63 *)
  mutable lo : int;  (** state bits 0..31 *)
  (* Output mix of the most recent draw, filled by [next]. Scratch
     fields rather than a returned pair so a draw allocates nothing. *)
  mutable zhi : int;
  mutable zlo : int;
}

let mask32 = 0xFFFFFFFF

(* golden_gamma = 0x9E3779B97F4A7C15 *)
let gamma_hi = 0x9E3779B9
let gamma_lo = 0x7F4A7C15

let create seed =
  {
    hi = Int64.to_int (Int64.shift_right_logical seed 32) land mask32;
    lo = Int64.to_int seed land mask32;
    zhi = 0;
    zlo = 0;
  }

(* Advance the state by golden_gamma and run the output mix
   [z ^= z >>> 30; z *= M1; z ^= z >>> 27; z *= M2; z ^= z >>> 31]
   into [zhi]/[zlo].

   A multiply-by-constant mod 2^64 splits the 32-bit halves into
   16-bit limbs so no partial product exceeds 2^49:
   with a = ahi·2^32 + a1·2^16 + a0 and likewise c3..c0 for the
   constant, the low word is a1a0 × c1c0 assembled from p00/p01/p10,
   and the high word adds p11, the low-word carries, and the mod-2^32
   cross terms. *)
let next t =
  let l = t.lo + gamma_lo in
  t.lo <- l land mask32;
  t.hi <- (t.hi + gamma_hi + (l lsr 32)) land mask32;
  let zhi = t.hi and zlo = t.lo in
  (* z ^= z >>> 30 *)
  let zlo = zlo lxor ((zlo lsr 30) lor ((zhi land 0x3FFFFFFF) lsl 2))
  and zhi = zhi lxor (zhi lsr 30) in
  (* z *= 0xBF58476D1CE4E5B9 *)
  let a0 = zlo land 0xFFFF and a1 = zlo lsr 16 in
  let p00 = a0 * 0xE5B9
  and p01 = a0 * 0x1CE4
  and p10 = a1 * 0xE5B9
  and p11 = a1 * 0x1CE4 in
  let mid = p01 + p10 in
  let losum = p00 + ((mid land 0xFFFF) lsl 16) in
  let zlo' = losum land mask32 in
  let zhi =
    ((losum lsr 32) + (mid lsr 16) + p11
    + (zlo * 0x476D) + (((zlo * 0xBF58) land 0xFFFF) lsl 16)
    + (zhi * 0xE5B9) + (((zhi * 0x1CE4) land 0xFFFF) lsl 16))
    land mask32
  in
  let zlo = zlo' in
  (* z ^= z >>> 27 *)
  let zlo = zlo lxor ((zlo lsr 27) lor ((zhi land 0x7FFFFFF) lsl 5))
  and zhi = zhi lxor (zhi lsr 27) in
  (* z *= 0x94D049BB133111EB *)
  let a0 = zlo land 0xFFFF and a1 = zlo lsr 16 in
  let p00 = a0 * 0x11EB
  and p01 = a0 * 0x1331
  and p10 = a1 * 0x11EB
  and p11 = a1 * 0x1331 in
  let mid = p01 + p10 in
  let losum = p00 + ((mid land 0xFFFF) lsl 16) in
  let zlo' = losum land mask32 in
  let zhi =
    ((losum lsr 32) + (mid lsr 16) + p11
    + (zlo * 0x49BB) + (((zlo * 0x94D0) land 0xFFFF) lsl 16)
    + (zhi * 0x11EB) + (((zhi * 0x1331) land 0xFFFF) lsl 16))
    land mask32
  in
  let zlo = zlo' in
  (* z ^= z >>> 31 *)
  t.zlo <- zlo lxor ((zlo lsr 31) lor ((zhi land 0x7FFFFFFF) lsl 1));
  t.zhi <- zhi lxor (zhi lsr 31)

let int64 t =
  next t;
  Int64.logor (Int64.shift_left (Int64.of_int t.zhi) 32) (Int64.of_int t.zlo)

let split t = create (int64 t)

let float t =
  (* 53 random bits into the mantissa: bits 11..63 of the draw. *)
  next t;
  float_of_int ((t.zhi lsl 21) lor (t.zlo lsr 11)) *. 0x1.0p-53

let int t bound =
  if bound <= 0 then invalid_arg "Rng.int: bound must be positive";
  (* Mask to 62 bits so the value stays non-negative as an OCaml int;
     modulo bias is negligible for bounds far below 2^62. *)
  next t;
  let v = ((t.zhi land 0x3FFFFFFF) lsl 32) lor t.zlo in
  v mod bound

let uniform t lo hi = lo +. ((hi -. lo) *. float t)

let normal t ~mean ~std =
  let rec nonzero () =
    let u = float t in
    if u > 0. then u else nonzero ()
  in
  let u1 = nonzero () and u2 = float t in
  let r = sqrt (-2. *. log u1) in
  mean +. (std *. r *. cos (2. *. Float.pi *. u2))

let exponential t ~mean =
  let rec nonzero () =
    let u = float t in
    if u > 0. then u else nonzero ()
  in
  -.mean *. log (nonzero ())

let lognormal t ~mu ~sigma = exp (normal t ~mean:mu ~std:sigma)
