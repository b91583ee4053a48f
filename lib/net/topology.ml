open Domino_sim

type t = { dc_names : string array; rtt : float array array }

(* Build a symmetric RTT matrix from an upper-triangular listing. *)
let of_upper names upper =
  let n = Array.length names in
  let rtt = Array.make_matrix n n 0. in
  List.iter
    (fun (i, j, ms) ->
      rtt.(i).(j) <- ms;
      rtt.(j).(i) <- ms)
    upper;
  { dc_names = names; rtt }

(* Table 1: network roundtrip delays (ms), global setting. *)
let globe =
  let names = [| "VA"; "WA"; "PR"; "NSW"; "SG"; "HK" |] in
  (* VA=0 WA=1 PR=2 NSW=3 SG=4 HK=5 *)
  of_upper names
    [
      (0, 1, 67.);
      (0, 2, 80.);
      (0, 3, 196.);
      (0, 4, 214.);
      (0, 5, 196.);
      (1, 2, 136.);
      (1, 3, 175.);
      (1, 4, 163.);
      (1, 5, 141.);
      (2, 3, 234.);
      (2, 4, 149.);
      (2, 5, 185.);
      (3, 4, 87.);
      (3, 5, 117.);
      (4, 5, 35.);
    ]

(* Table 4: network roundtrip delays (ms), North America. *)
let na =
  let names = [| "VA"; "TX"; "CA"; "IA"; "WA"; "WY"; "IL"; "QC"; "TRT" |] in
  (* VA=0 TX=1 CA=2 IA=3 WA=4 WY=5 IL=6 QC=7 TRT=8 *)
  of_upper names
    [
      (0, 1, 27.);
      (0, 2, 59.);
      (0, 3, 31.);
      (0, 4, 67.);
      (0, 5, 46.);
      (0, 6, 26.);
      (0, 7, 38.);
      (0, 8, 29.);
      (1, 2, 33.);
      (1, 3, 22.);
      (1, 4, 42.);
      (1, 5, 23.);
      (1, 6, 30.);
      (1, 7, 51.);
      (1, 8, 43.);
      (2, 3, 41.);
      (2, 4, 23.);
      (2, 5, 24.);
      (2, 6, 48.);
      (2, 7, 67.);
      (2, 8, 59.);
      (3, 4, 36.);
      (3, 5, 14.);
      (3, 6, 8.);
      (3, 7, 32.);
      (3, 8, 22.);
      (4, 5, 21.);
      (4, 6, 43.);
      (4, 7, 68.);
      (4, 8, 57.);
      (5, 6, 24.);
      (5, 7, 46.);
      (5, 8, 36.);
      (6, 7, 23.);
      (6, 8, 14.);
      (7, 8, 11.);
    ]

let size t = Array.length t.dc_names

let names t = Array.to_list t.dc_names

let index t dc_name =
  let n = Array.length t.dc_names in
  let rec search i =
    if i >= n then raise Not_found
    else if String.equal t.dc_names.(i) dc_name then i
    else search (i + 1)
  in
  search 0

let rtt_ms t i j = t.rtt.(i).(j)

(* Deterministic per-pair asymmetry: hash the unordered pair, derive a
   forward fraction in [0.44, 0.58] for the lower-index -> higher-index
   direction. Real inter-DC paths are rarely symmetric; Tables 2-3 of
   the paper quantify exactly the estimation error this causes. *)
let forward_fraction t i j =
  if i = j then 0.5
  else begin
    let lo = Stdlib.min i j and hi = Stdlib.max i j in
    let h = Hashtbl.hash (t.dc_names.(lo), t.dc_names.(hi), "owd-split") in
    let frac = 0.40 +. (float_of_int (h mod 1000) /. 1000. *. 0.20) in
    if i < j then frac else 1. -. frac
  end

let owd_ms t i j = rtt_ms t i j *. forward_fraction t i j

(* Calibrated so that a p95-of-last-second predictor is correct ~94%
   of the time (paper Fig. 3) and its p99 misprediction is a few ms
   (paper Table 3). *)
let wan_jitter = Jitter.default_wan

let make_net engine t ~placement =
  let n = Array.length placement in
  let net = Fifo_net.create engine ~n in
  let rng = Engine.rng engine in
  for src = 0 to n - 1 do
    for dst = 0 to n - 1 do
      if src <> dst then begin
        let i = index t placement.(src) and j = index t placement.(dst) in
        let link =
          if i = j then Link.local rng
          else begin
            let owd = Time_ns.of_ms_f (owd_ms t i j) in
            Link.create ~jitter:wan_jitter ~loss:1e-4 ~base_owd:owd rng
          end
        in
        Fifo_net.set_link net ~src ~dst link
      end
    done
  done;
  net
