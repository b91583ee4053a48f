(** Per-node latency estimation state (paper §5.4 and §5.6).

    One [t] lives in every Domino client and every replica. It ingests
    probe replies and answers the questions the protocol asks:

    - {b Arrival-time prediction} (§5.4, used by DFP clients): the
      predicted arrival of a request at replica [r], in [r]'s clock
      frame, is [now_local + P_n(arrival offsets to r)] where the
      arrival offset of a probe is [replica_local - sent_local] — OWD
      and clock skew folded together.
    - {b DFP commit-latency estimate} (§5.6): [D_q], the q-th smallest
      of the per-replica RTT percentiles.
    - {b DM commit-latency estimate} (§5.6): [min_r (E_r + L_r)] where
      [E_r] is the RTT to replica [r] and [L_r] is piggybacked on probe
      replies. On replicas (created with [~self]), the same state
      computes their own [L_r] as the m-th smallest RTT percentile with
      the self-delay fixed at zero.

    Estimates are percentiles over the last 1 s of probe replies.
    Replicas that have not answered a probe within 1 s are treated as
    infinitely far (§5.8): they drop out of quorum-latency estimates,
    steering clients from DFP to DM on failures. *)

open Domino_sim

type t

val create : ?percentile:float -> ?self:int -> n_replicas:int -> unit -> t
(** [percentile] defaults to the paper's 95. [self] marks the node
    itself when it is one of the replicas (its delay to itself is
    zero). *)

val set_percentile : t -> float -> unit

val record_reply : t -> replica:int -> now_local:Time_ns.t -> Probe.reply -> unit
(** Feed one probe reply, received at the node's local time
    [now_local]. Updates the RTT window ([now_local - sent_local]), the
    arrival-offset window ([replica_local - sent_local]) and the
    piggybacked [L_r]. *)

val rtt : t -> replica:int -> now_local:Time_ns.t -> Time_ns.span option
(** Current RTT estimate (configured percentile over the window);
    [Some 0] for self; [None] when no fresh data (stale or never
    probed). *)

val arrival_offset :
  t -> replica:int -> now_local:Time_ns.t -> Time_ns.span option
(** Current arrival-offset estimate at the configured percentile. *)

val request_timestamp :
  t -> now_local:Time_ns.t -> q:int -> extra:Time_ns.span -> Time_ns.t option
(** The DFP request timestamp: the q-th smallest predicted arrival time
    over all replicas, plus the client's additional delay (§5.4).
    [None] if fewer than [q] replicas have fresh measurements. *)

val replication_latency :
  t -> m:int -> now_local:Time_ns.t -> Time_ns.span option
(** On a replica: its own [L_r] — the m-th smallest RTT estimate with
    the self-delay counted as zero (§5.6). [None] until enough peers
    have been measured. *)

val lat_dfp : t -> q:int -> now_local:Time_ns.t -> Time_ns.span option
(** Estimated DFP commit latency [D_q] (§5.6). *)

val lat_dm : t -> now_local:Time_ns.t -> (Time_ns.span * int) option
(** Estimated DM commit latency and the replica achieving it:
    [min_r (E_r + L_r)] (§5.6). *)

type choice = Dfp | Dm of int

val choose : t -> q:int -> now_local:Time_ns.t -> choice
(** Pick the subsystem with the lower estimated commit latency; ties
    and missing data fall back to DM via the closest live replica, or
    DFP when nothing is known yet (§5.6). *)

val pp_choice : Format.formatter -> choice -> unit
