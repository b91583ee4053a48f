(** Datacenter topologies from the paper.

    [globe] is Table 1 (6 datacenters: VA, WA, PR, NSW, SG, HK) and
    [na] is Table 4 (9 North-American datacenters). RTTs are the
    paper's measured averages in milliseconds.

    {!make_net} turns a topology plus a node→datacenter placement into a
    {!Fifo_net} with one directed {!Link} per node pair. RTTs are split
    into asymmetric forward/reverse one-way delays (deterministically
    per datacenter pair), because the gap between half-RTT and true OWD
    is precisely what the paper's Tables 2-3 measure. Nodes placed in
    the same datacenter get intra-DC links. *)

open Domino_sim

type t

val globe : t
(** Table 1: VA, WA, PR, NSW, SG, HK. *)

val na : t
(** Table 4: VA, TX, CA, IA, WA, WY, IL, QC, TRT. *)

val size : t -> int

val names : t -> string list

val index : t -> string -> int
(** @raise Not_found for an unknown datacenter name. *)

val rtt_ms : t -> int -> int -> float
(** Average RTT between two datacenters (0 within a datacenter). *)

val forward_fraction : t -> int -> int -> float
(** The fraction of the pair RTT assigned to the [i]→[j] direction;
    deterministic, in [0.40, 0.60], and
    [forward_fraction i j +. forward_fraction j i = 1]. *)

val owd_ms : t -> int -> int -> float
(** [rtt_ms * forward_fraction] for the directed pair. *)

val wan_jitter : Jitter.params
(** The calibrated WAN jitter model: a slowly-moving sub-ms level plus
    a small fraction of multi-ms congestion spikes, matching the delay
    stability measured in paper §3 (Figures 1-3). *)

val make_net : Engine.t -> t -> placement:string array -> 'msg Fifo_net.t
(** [make_net engine topo ~placement] creates a network of one node per
    [placement] entry, [placement.(node)] being the node's datacenter
    name, and installs a link for every ordered node pair: {!wan_jitter}
    and loss [1e-4] across datacenters, {!Link.local} within one. *)
