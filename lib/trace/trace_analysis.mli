open Domino_sim

(** Analyses over probe traces reproducing §3's figures and tables.

    All latency results are in milliseconds. *)

type delay_summary = {
  minimum : float;
  p50 : float;
  p95 : float;
  p99 : float;
  within_3ms_of_median : float;
      (** fraction of probes within ±3 ms of the median — Figure 1's
          "delays concentrate in a few buckets" claim *)
}

val fig1_summary : Trace_gen.probe array -> delay_summary

type box = { t_sec : float; p5 : float; p50 : float; p95 : float }

val fig2_boxes : Trace_gen.probe array -> box list
(** Per-second RTT boxes over the first minute (Figure 2). *)

val prediction_rate :
  window:Time_ns.span -> percentile:float -> Trace_gen.probe array -> float
(** Figure 3: fraction of probes whose arrival offset was <= the
    prediction made from the preceding window at the given percentile.
    Probes seen before the window has data are skipped. *)

val p99_misprediction_half_rtt :
  window:Time_ns.span -> percentile:float -> Trace_gen.probe array -> float
(** Table 2: predict the arrival offset as half the windowed RTT
    percentile; return the 99th percentile of the positive (late)
    misprediction values, 0 if none. *)

val p99_misprediction_owd :
  window:Time_ns.span -> percentile:float -> Trace_gen.probe array -> float
(** Table 3: predict with Domino's timestamp-based arrival offsets. *)
