type t = { sorted : float array }

let of_list xs =
  let sorted = Array.of_list xs in
  Array.sort compare sorted;
  { sorted }

let count t = Array.length t.sorted

let value_at t frac =
  let n = Array.length t.sorted in
  if n = 0 then nan
  else begin
    let frac = Float.max 0. (Float.min 1. frac) in
    let rank = frac *. float_of_int (n - 1) in
    let lo = int_of_float (floor rank) in
    let hi = int_of_float (ceil rank) in
    if lo = hi then t.sorted.(lo)
    else begin
      let w = rank -. float_of_int lo in
      t.sorted.(lo) +. (w *. (t.sorted.(hi) -. t.sorted.(lo)))
    end
  end

let fraction_below t x =
  let n = Array.length t.sorted in
  if n = 0 then nan
  else begin
    (* Binary search for the number of samples <= x. *)
    let rec search lo hi =
      if lo >= hi then lo
      else begin
        let mid = (lo + hi) / 2 in
        if t.sorted.(mid) <= x then search (mid + 1) hi else search lo mid
      end
    in
    float_of_int (search 0 n) /. float_of_int n
  end

let standard_rows t =
  let fracs =
    [ 0.01; 0.05; 0.10; 0.25; 0.50; 0.75; 0.90; 0.95; 0.99 ]
  in
  List.map (fun f -> (f, value_at t f)) fracs
