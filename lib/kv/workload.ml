open Domino_sim
open Domino_smr

module Zipf = struct
  type t = {
    n : int;
    theta : float;
    zetan : float;
    zeta2 : float;
    alpha_p : float;
    eta : float;
    rng : Rng.t;
  }

  let zeta n theta =
    let sum = ref 0. in
    for i = 1 to n do
      sum := !sum +. (1. /. (float_of_int i ** theta))
    done;
    !sum

  (* [zeta n theta] is a pure function, and a multi-client workload
     computes the same (n, theta) harmonic sum once per client — at the
     default 1M keys that is 1M libm [pow] calls each, which dominates
     experiment setup. Memoize it. The cached float is the identical
     value the direct computation returns, so sampling is unaffected;
     the lock is for sweeps running simulations on several domains. *)
  let zeta_cache : (int * float, float) Hashtbl.t = Hashtbl.create 8
  let zeta_cache_lock = Mutex.create ()

  let zeta_memo n theta =
    Mutex.lock zeta_cache_lock;
    match Hashtbl.find_opt zeta_cache (n, theta) with
    | Some z ->
      Mutex.unlock zeta_cache_lock;
      z
    | None ->
      Mutex.unlock zeta_cache_lock;
      let z = zeta n theta in
      Mutex.lock zeta_cache_lock;
      Hashtbl.replace zeta_cache (n, theta) z;
      Mutex.unlock zeta_cache_lock;
      z

  let create ?(alpha = 0.75) ~n rng =
    if n <= 0 then invalid_arg "Zipf.create: n must be positive";
    if alpha <= 0. || alpha >= 1. then
      invalid_arg "Zipf.create: alpha must be in (0, 1)";
    let theta = alpha in
    let zetan = zeta_memo n theta in
    let zeta2 = zeta 2 theta in
    let alpha_p = 1. /. (1. -. theta) in
    let eta =
      (1. -. ((2. /. float_of_int n) ** (1. -. theta)))
      /. (1. -. (zeta2 /. zetan))
    in
    { n; theta; zetan; zeta2; alpha_p; eta; rng = Rng.split rng }

  let sample t =
    let u = Rng.float t.rng in
    let uz = u *. t.zetan in
    if uz < 1. then 0
    else if uz < 1. +. (0.5 ** t.theta) then 1
    else begin
      let v =
        float_of_int t.n
        *. (((t.eta *. u) -. t.eta +. 1.) ** t.alpha_p)
      in
      Stdlib.min (t.n - 1) (Stdlib.max 0 (int_of_float v))
    end
end

type t = { mutable submitted : int }

let keys = 1_000_000

let create ?alpha ?(rate = 200.) ~clients ~duration ~submit engine =
  let t = { submitted = 0 } in
  let root = Engine.rng engine in
  List.iter
    (fun client ->
      let rng = Rng.split root in
      let zipf = Zipf.create ?alpha ~n:keys rng in
      let seq = ref 0 in
      let mean_gap = 1e3 /. rate in
      (* ms between requests *)
      let rec fire () =
        if Engine.now engine <= duration then begin
          let key = Zipf.sample zipf in
          let op =
            Op.make ~client ~seq:!seq ~key ~value:(Rng.int64 rng)
          in
          incr seq;
          t.submitted <- t.submitted + 1;
          submit op;
          schedule_next ()
        end
      and schedule_next () =
        let gap = Time_ns.of_ms_f (Rng.exponential rng ~mean:mean_gap) in
        ignore (Engine.schedule engine ~delay:(Stdlib.max 1 gap) fire)
      in
      (* Start at a random phase within the first mean gap. *)
      ignore
        (Engine.schedule engine
           ~delay:(Time_ns.of_ms_f (Rng.float rng *. mean_gap))
           fire))
    clients;
  t

let total_submitted t = t.submitted
