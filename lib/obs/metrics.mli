(** Structured metrics: a named registry of counters, gauges and
    fixed-bucket histograms.

    Nodes, protocols and the experiment harness register instruments by
    name ([proto.msg.ack.delivered], [run.commit_latency_ms], ...) and
    update them on the hot path; emission renders the whole registry as
    JSON or as aligned tables, with entries sorted by name so that two
    runs with the same seed produce byte-identical output.

    Everything is driven by simulated time and simulated events only —
    no wall clock ever enters a registry — which is what makes the
    emitted JSON reproducible. *)

type t
(** A registry. *)

type counter
type gauge
type histogram

val create : unit -> t

(** {1 Registration}

    All lookups are get-or-create by name: registering the same name
    twice returns the same instrument, so independent subsystems can
    share an instrument by agreeing on its name. A name registered as
    one kind cannot be re-registered as another
    (@raise Invalid_argument). *)

val counter : t -> string -> counter
val gauge : t -> string -> gauge
val histogram : t -> string -> histogram

(** {1 Updates} *)

val inc : counter -> unit
val add : counter -> int -> unit
val set : gauge -> float -> unit
val observe : histogram -> float -> unit
(** Record one sample. Negative and NaN samples are clamped to 0 and
    counted in {!histogram_clamped} — a non-zero clamp count flags an
    upstream bug (latencies can't be negative) without poisoning the
    distribution. *)

(** {1 Reads} *)

val counter_value : counter -> int
val gauge_value : gauge -> float
val histogram_count : histogram -> int

val histogram_clamped : histogram -> int
(** Samples clamped to 0 by {!observe} (negative or NaN inputs); also
    emitted as the ["clamped"] field of the histogram's JSON. *)

val histogram_sum : histogram -> float
val histogram_min : histogram -> float
(** [nan] when empty. *)

val histogram_max : histogram -> float
(** [nan] when empty. *)

val histogram_quantile : histogram -> float -> float
(** [histogram_quantile h q] for [q] in [\[0, 100\]]: an upper bound on
    the q-th percentile, from the bucket layout (HDR-style, <= ~3.2%
    relative error). [nan] when empty. *)

val find_counter : t -> string -> counter option
val find_gauge : t -> string -> gauge option
val find_histogram : t -> string -> histogram option

(** {1 Bucket layout}

    HDR-histogram-style layout over non-negative values: 32 linear
    buckets of width 1 cover \[0, 32), then each further power-of-two
    range is split into 32 sub-buckets, giving a bounded ~3.2% relative
    error at any magnitude. Values are whatever unit the caller
    observes (latencies here are milliseconds). *)

val bucket_index : float -> int
(** Index of the bucket a sample lands in. *)

val bucket_bounds : int -> float * float
(** [\[lo, hi)] value range of a bucket index. *)

(** {1 Emission} *)

val to_json : t -> Domino_stats.Json.t
(** The full registry: [{"counters": {...}, "gauges": {...},
    "histograms": {...}}], every object sorted by instrument name,
    histograms as summary fields plus the non-empty buckets. *)

val to_json_string : t -> string
(** [Json.to_string_pretty] of {!to_json}: deterministic bytes. *)
