type t = int
type span = int

let zero = 0

let ns x = x
let us x = x * 1_000
let ms x = x * 1_000_000
let sec x = x * 1_000_000_000

let of_ms_f x = int_of_float (Float.round (x *. 1e6))

let to_ms_f x = float_of_int x /. 1e6
let to_us_f x = float_of_int x /. 1e3
let to_sec_f x = float_of_int x /. 1e9

let add t s = t + s
let diff a b = a - b

let max (a : t) (b : t) = Stdlib.max a b

let pp fmt t =
  let a = abs t in
  if a < 1_000 then Format.fprintf fmt "%dns" t
  else if a < 1_000_000 then Format.fprintf fmt "%.1fus" (to_us_f t)
  else if a < 1_000_000_000 then Format.fprintf fmt "%.2fms" (to_ms_f t)
  else Format.fprintf fmt "%.3fs" (to_sec_f t)

let pp_ms fmt t = Format.fprintf fmt "%.3fms" (to_ms_f t)
