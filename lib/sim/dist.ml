type t =
  | Constant of float
  | Uniform of float * float
  | Exponential of float
  | Lognormal of { median_ms : float; sigma : float }
  | Shifted of float * t
  | Mixture of (float * t) list

let rec sample_ms t rng =
  let v =
    match t with
    | Constant c -> c
    | Uniform (lo, hi) -> Rng.uniform rng lo hi
    | Exponential mean -> Rng.exponential rng ~mean
    | Lognormal { median_ms; sigma } ->
      Rng.lognormal rng ~mu:(log median_ms) ~sigma
    | Shifted (c, d) -> c +. sample_ms d rng
    | Mixture parts -> sample_mixture parts rng
  in
  Float.max 0. v

and sample_mixture parts rng =
  let total = List.fold_left (fun acc (w, _) -> acc +. w) 0. parts in
  let x = Rng.float rng *. total in
  let rec pick acc = function
    | [] -> invalid_arg "Dist.Mixture: empty"
    | [ (_, d) ] -> sample_ms d rng
    | (w, d) :: rest ->
      let acc = acc +. w in
      if x < acc then sample_ms d rng else pick acc rest
  in
  pick 0. parts

let rec mean_ms = function
  | Constant c -> c
  | Uniform (lo, hi) -> (lo +. hi) /. 2.
  | Exponential mean -> mean
  | Lognormal { median_ms; sigma } ->
    median_ms *. exp (sigma *. sigma /. 2.)
  | Shifted (c, d) -> c +. mean_ms d
  | Mixture parts ->
    let total = List.fold_left (fun acc (w, _) -> acc +. w) 0. parts in
    List.fold_left (fun acc (w, d) -> acc +. (w /. total *. mean_ms d)) 0. parts
