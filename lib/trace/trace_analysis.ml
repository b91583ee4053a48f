open Domino_sim
open Domino_measure

type delay_summary = {
  minimum : float;
  p50 : float;
  p95 : float;
  p99 : float;
  within_3ms_of_median : float;
}

let rtt_summary probes =
  let s = Domino_stats.Summary.create () in
  Array.iter
    (fun (p : Trace_gen.probe) ->
      Domino_stats.Summary.add s (Time_ns.to_ms_f p.rtt))
    probes;
  s

let fig1_summary probes =
  let s = rtt_summary probes in
  let median = Domino_stats.Summary.median s in
  let within =
    Array.fold_left
      (fun acc (p : Trace_gen.probe) ->
        let v = Time_ns.to_ms_f p.rtt in
        if Float.abs (v -. median) <= 3. then acc + 1 else acc)
      0 probes
  in
  {
    minimum = Domino_stats.Summary.minimum s;
    p50 = median;
    p95 = Domino_stats.Summary.percentile s 95.;
    p99 = Domino_stats.Summary.percentile s 99.;
    within_3ms_of_median =
      float_of_int within /. float_of_int (Array.length probes);
  }

type box = { t_sec : float; p5 : float; p50 : float; p95 : float }

let fig2_boxes probes =
  let box_width = Time_ns.sec 1 and span = Time_ns.sec 60 in
  if Array.length probes = 0 then []
  else begin
    let t0 = probes.(0).Trace_gen.t_send in
    let n_boxes = span / box_width in
    let buckets = Array.init n_boxes (fun _ -> Domino_stats.Summary.create ()) in
    Array.iter
      (fun (p : Trace_gen.probe) ->
        let idx = Time_ns.diff p.t_send t0 / box_width in
        if idx >= 0 && idx < n_boxes then
          Domino_stats.Summary.add buckets.(idx) (Time_ns.to_ms_f p.rtt))
      probes;
    List.filter_map
      (fun i ->
        let s = buckets.(i) in
        if Domino_stats.Summary.is_empty s then None
        else
          Some
            {
              t_sec = float_of_int (i * box_width) /. 1e9;
              p5 = Domino_stats.Summary.percentile s 5.;
              p50 = Domino_stats.Summary.median s;
              p95 = Domino_stats.Summary.percentile s 95.;
            })
      (List.init n_boxes Fun.id)
  end

(* Shared predictor sweep: for each probe, [predict] from the window
   contents (before the probe is added), then feed the probe. [judge]
   receives (predicted, actual arrival offset). *)
let sweep ~window ~feed ~predict ~judge probes =
  let rtt_win = Window.create ~window in
  let off_win = Window.create ~window in
  Array.iter
    (fun (p : Trace_gen.probe) ->
      let now = p.Trace_gen.t_send in
      (match predict ~rtt_win ~off_win ~now with
      | None -> ()
      | Some predicted -> judge ~predicted ~actual:p.arrival_offset);
      feed ~rtt_win ~off_win ~now p)
    probes

let feed_both ~rtt_win ~off_win ~now (p : Trace_gen.probe) =
  Window.add rtt_win ~now p.rtt;
  Window.add off_win ~now p.arrival_offset

let prediction_rate ~window ~percentile probes =
  let correct = ref 0 and total = ref 0 in
  sweep ~window ~feed:feed_both
    ~predict:(fun ~rtt_win:_ ~off_win ~now ->
      Window.percentile off_win ~now percentile)
    ~judge:(fun ~predicted ~actual ->
      incr total;
      if actual <= predicted then incr correct)
    probes;
  if !total = 0 then 0. else float_of_int !correct /. float_of_int !total

let p99_of_late late =
  if Domino_stats.Summary.is_empty late then 0.
  else Domino_stats.Summary.percentile late 99.

let p99_misprediction_half_rtt ~window ~percentile probes =
  let late = Domino_stats.Summary.create () in
  sweep ~window ~feed:feed_both
    ~predict:(fun ~rtt_win ~off_win:_ ~now ->
      match Window.percentile rtt_win ~now percentile with
      | Some rtt -> Some (rtt / 2)
      | None -> None)
    ~judge:(fun ~predicted ~actual ->
      let miss = actual - predicted in
      if miss > 0 then
        Domino_stats.Summary.add late (Time_ns.to_ms_f miss))
    probes;
  p99_of_late late

let p99_misprediction_owd ~window ~percentile probes =
  let late = Domino_stats.Summary.create () in
  sweep ~window ~feed:feed_both
    ~predict:(fun ~rtt_win:_ ~off_win ~now ->
      Window.percentile off_win ~now percentile)
    ~judge:(fun ~predicted ~actual ->
      let miss = actual - predicted in
      if miss > 0 then
        Domino_stats.Summary.add late (Time_ns.to_ms_f miss))
    probes;
  p99_of_late late
