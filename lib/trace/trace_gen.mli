open Domino_sim
open Domino_net

(** Synthetic inter-datacenter probe traces.

    The paper's §3 measurement study ran 24 h of 10 ms gRPC probes
    between Azure datacenters (the raw tarballs are no longer needed:
    only their statistical shape matters to Figures 1-3 and Tables
    2-3). This generator reproduces that shape:

    - a stable base RTT per pair (the paper's Table 1/4 averages) with
      sub-ms lognormal jitter and a small rate of multi-ms congestion
      spikes;
    - asymmetric forward/reverse one-way delays (half-RTT != true OWD);
    - per-node clock offset and drift; one badly disciplined clock
      (NSW, drifting ~-30 ppm ≈ -2.6 s/day) reproduces the paper's
      headline Table 2 result that half-RTT mispredictions reach
      seconds while Domino's timestamp-based estimator stays in single
      milliseconds (Table 3);
    - optional route-change events that shift the base delay mid-trace.

    Each probe records what a real Domino client would measure: its
    send time (sender clock), the measured RTT, and the arrival offset
    [receiver_clock_arrival - sender_clock_send]. *)

type probe = {
  t_send : Time_ns.t;  (** sender-clock send time *)
  rtt : Time_ns.span;  (** measured roundtrip *)
  arrival_offset : Time_ns.span;
      (** receiver-clock arrival minus sender-clock send: OWD + skew *)
  true_fwd_owd : Time_ns.span;  (** ground truth, for test assertions *)
}

type node_clock = { base_offset_ms : float; drift_ppm : float }

val drifting : drift_ppm:float -> node_clock

type pair_spec = {
  rtt_ms : float;
  fwd_fraction : float;  (** share of the RTT on the forward path *)
  jitter : Jitter.params;  (** same process as the protocol links *)
  src_clock : node_clock;
  dst_clock : node_clock;
}

val azure_pair : Topology.t -> src:string -> dst:string -> pair_spec
(** The calibrated model for a directed datacenter pair: RTT from the
    topology matrix, deterministic asymmetry, the {!Topology.wan_jitter}
    mixture, and NSW given the drifting clock. *)

val generate :
  ?interval:Time_ns.span ->
  ?duration:Time_ns.span ->
  seed:int64 ->
  pair_spec ->
  probe array
(** Defaults: 10 ms probes for 10 simulated minutes. The paper's full
    24 h scale is [~duration:(Time_ns.sec 86_400)]. *)
