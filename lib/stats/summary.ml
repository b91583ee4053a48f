type t = {
  mutable data : float array;
  mutable size : int;
  mutable sorted : bool;
}

let create () = { data = [||]; size = 0; sorted = false }

let add t x =
  let cap = Array.length t.data in
  if t.size = cap then begin
    let ncap = if cap = 0 then 64 else 2 * cap in
    let ndata = Array.make ncap 0. in
    Array.blit t.data 0 ndata 0 t.size;
    t.data <- ndata
  end;
  t.data.(t.size) <- x;
  t.size <- t.size + 1;
  t.sorted <- false

let add_list t xs = List.iter (add t) xs

let merge a b =
  let t = create () in
  for i = 0 to a.size - 1 do
    add t a.data.(i)
  done;
  for i = 0 to b.size - 1 do
    add t b.data.(i)
  done;
  t

let count t = t.size

let is_empty t = t.size = 0

let ensure_sorted t =
  if not t.sorted then begin
    let live = Array.sub t.data 0 t.size in
    Array.sort compare live;
    Array.blit live 0 t.data 0 t.size;
    t.sorted <- true
  end

let mean t =
  if t.size = 0 then nan
  else begin
    let sum = ref 0. in
    for i = 0 to t.size - 1 do
      sum := !sum +. t.data.(i)
    done;
    !sum /. float_of_int t.size
  end

let stddev t =
  if t.size < 2 then 0.
  else begin
    let m = mean t in
    let sum = ref 0. in
    for i = 0 to t.size - 1 do
      let d = t.data.(i) -. m in
      sum := !sum +. (d *. d)
    done;
    sqrt (!sum /. float_of_int (t.size - 1))
  end

let minimum t =
  if t.size = 0 then nan
  else begin
    ensure_sorted t;
    t.data.(0)
  end

let maximum t =
  if t.size = 0 then nan
  else begin
    ensure_sorted t;
    t.data.(t.size - 1)
  end

let percentile t p =
  if t.size = 0 then nan
  else begin
    ensure_sorted t;
    let p = Float.max 0. (Float.min 100. p) in
    let rank = p /. 100. *. float_of_int (t.size - 1) in
    let lo = int_of_float (floor rank) in
    let hi = int_of_float (ceil rank) in
    if lo = hi then t.data.(lo)
    else begin
      let frac = rank -. float_of_int lo in
      t.data.(lo) +. (frac *. (t.data.(hi) -. t.data.(lo)))
    end
  end

let median t = percentile t 50.

let confidence95 t =
  if t.size < 2 then 0.
  else 1.96 *. stddev t /. sqrt (float_of_int t.size)

let pp_brief fmt t =
  if is_empty t then Format.pp_print_string fmt "(no samples)"
  else
    Format.fprintf fmt "n=%d mean=%.2f p50=%.2f p95=%.2f p99=%.2f" (count t)
      (mean t) (percentile t 50.) (percentile t 95.) (percentile t 99.)
