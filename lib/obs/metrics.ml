type counter = { mutable c : int }

type gauge = { mutable g : float }

(* Bucket layout: 32 unit-width buckets cover [0, 32); every further
   power-of-two range [2^k, 2^(k+1)) is split into 32 equal sub-buckets.
   Index space is bounded (values are clamped into the last bucket), so
   a histogram is one flat int array and recording is branch + shift. *)
let sub = 32

let majors = 58 (* covers magnitudes up to 2^62 *)

let n_buckets = sub * majors

let bucket_index v =
  let v = if Float.is_nan v || v < 0. then 0. else v in
  let u =
    if v >= 4.0e18 then max_int else int_of_float v
  in
  if u < sub then u
  else begin
    let k = ref 5 in
    while u lsr (!k + 1) > 0 do incr k done;
    (* !k = floor(log2 u) >= 5 *)
    let shift = !k - 5 in
    let idx = (sub * (!k - 4)) + ((u lsr shift) - sub) in
    if idx >= n_buckets then n_buckets - 1 else idx
  end

let bucket_bounds idx =
  if idx < 0 || idx >= n_buckets then invalid_arg "Metrics.bucket_bounds";
  if idx < sub then (float_of_int idx, float_of_int (idx + 1))
  else begin
    let major = idx / sub and s = idx mod sub in
    let shift = major - 1 in
    (* Bounds in float: the last bucket's upper bound (2^62) would
       overflow a native int. Exact — tiny mantissa, power-of-two
       scale. *)
    let lo = Float.ldexp (float_of_int (sub + s)) shift in
    let hi = lo +. Float.ldexp 1. shift in
    (lo, hi)
  end

type histogram = {
  mutable buckets : int array;  (** empty until the first observation *)
  mutable count : int;
  mutable sum : float;
  mutable mn : float;
  mutable mx : float;
  mutable clamped : int;
}

type instr = C of counter | G of gauge | H of histogram

type t = (string, instr) Hashtbl.t

let create () : t = Hashtbl.create 64

let kind_name = function C _ -> "counter" | G _ -> "gauge" | H _ -> "histogram"

let get_or_create (t : t) name ~want ~make =
  match Hashtbl.find_opt t name with
  | Some i -> i
  | None ->
    ignore want;
    let i = make () in
    Hashtbl.replace t name i;
    i

let counter t name =
  match
    get_or_create t name ~want:"counter" ~make:(fun () -> C { c = 0 })
  with
  | C c -> c
  | other ->
    invalid_arg
      (Printf.sprintf "Metrics.counter: %s is a %s" name (kind_name other))

let gauge t name =
  match get_or_create t name ~want:"gauge" ~make:(fun () -> G { g = 0. }) with
  | G g -> g
  | other ->
    invalid_arg
      (Printf.sprintf "Metrics.gauge: %s is a %s" name (kind_name other))

let histogram t name =
  match
    get_or_create t name ~want:"histogram" ~make:(fun () ->
        H
          {
            buckets = [||];
            count = 0;
            sum = 0.;
            mn = nan;
            mx = nan;
            clamped = 0;
          })
  with
  | H h -> h
  | other ->
    invalid_arg
      (Printf.sprintf "Metrics.histogram: %s is a %s" name (kind_name other))

let inc c = c.c <- c.c + 1

let add c by = c.c <- c.c + by

let set g v = g.g <- v

let observe h v =
  let clamp = Float.is_nan v || v < 0. in
  if clamp then h.clamped <- h.clamped + 1;
  let v = if clamp then 0. else v in
  let idx = bucket_index v in
  if h.count = 0 then h.buckets <- Array.make n_buckets 0;
  h.buckets.(idx) <- h.buckets.(idx) + 1;
  h.count <- h.count + 1;
  h.sum <- h.sum +. v;
  if Float.is_nan h.mn || v < h.mn then h.mn <- v;
  if Float.is_nan h.mx || v > h.mx then h.mx <- v

let counter_value c = c.c

let gauge_value g = g.g

let histogram_count h = h.count

let histogram_sum h = h.sum

let histogram_clamped h = h.clamped

let histogram_min h = h.mn

let histogram_max h = h.mx

let histogram_quantile h q =
  if h.count = 0 then nan
  else begin
    let q = Float.min 100. (Float.max 0. q) in
    let rank =
      Stdlib.max 1 (int_of_float (ceil (q /. 100. *. float_of_int h.count)))
    in
    let acc = ref 0 and idx = ref 0 and found = ref nan in
    while Float.is_nan !found && !idx < n_buckets do
      acc := !acc + h.buckets.(!idx);
      if !acc >= rank then begin
        let _, hi = bucket_bounds !idx in
        (* An upper bound, never past the true maximum observed. *)
        found := Float.min hi h.mx
      end;
      incr idx
    done;
    !found
  end

let find_counter t name =
  match Hashtbl.find_opt t name with Some (C c) -> Some c | _ -> None

let find_gauge t name =
  match Hashtbl.find_opt t name with Some (G g) -> Some g | _ -> None

let find_histogram t name =
  match Hashtbl.find_opt t name with Some (H h) -> Some h | _ -> None

let sorted_bindings t =
  Hashtbl.fold (fun k v acc -> (k, v) :: acc) t []
  |> List.sort (fun (a, _) (b, _) -> String.compare a b)

let histogram_json h =
  let buckets = ref [] in
  for idx = Array.length h.buckets - 1 downto 0 do
    if h.buckets.(idx) > 0 then begin
      let lo, _ = bucket_bounds idx in
      buckets :=
        Domino_stats.Json.(
          Obj [ ("lo", Float lo); ("n", Int h.buckets.(idx)) ])
        :: !buckets
    end
  done;
  Domino_stats.Json.(
    Obj
      [
        ("count", Int h.count);
        ("clamped", Int h.clamped);
        ("sum", Float h.sum);
        ("min", Float h.mn);
        ("max", Float h.mx);
        ("p50", Float (histogram_quantile h 50.));
        ("p95", Float (histogram_quantile h 95.));
        ("p99", Float (histogram_quantile h 99.));
        ("buckets", List !buckets);
      ])

let to_json t =
  let counters = ref [] and gauges = ref [] and histograms = ref [] in
  List.iter
    (fun (name, instr) ->
      match instr with
      | C c -> counters := (name, Domino_stats.Json.Int c.c) :: !counters
      | G g -> gauges := (name, Domino_stats.Json.Float g.g) :: !gauges
      | H h -> histograms := (name, histogram_json h) :: !histograms)
    (List.rev (sorted_bindings t));
  Domino_stats.Json.(
    Obj
      [
        ("counters", Obj !counters);
        ("gauges", Obj !gauges);
        ("histograms", Obj !histograms);
      ])

let to_json_string t = Domino_stats.Json.to_string_pretty (to_json t) ^ "\n"
