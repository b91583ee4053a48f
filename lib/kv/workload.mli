open Domino_sim
open Domino_net
open Domino_smr

(** Workload generation for the evaluation (§7.1).

    One million keys, 8 B keys and values, keys drawn from a Zipfian
    distribution (default alpha 0.75; Figure 10b uses 0.95). Clients
    are open-loop: each sends [rate] requests per second with
    exponential inter-arrival times. *)

module Zipf : sig
  type t

  val create : ?alpha:float -> n:int -> Rng.t -> t
  (** Zipfian over [\[0, n)] with exponent [alpha] (default 0.75),
      using the Gray et al. bucket-free approximation, so creation is
      O(1) and sampling O(1). *)

  val sample : t -> int
end

type t

val create :
  ?alpha:float ->
  ?rate:float ->
  clients:Nodeid.t list ->
  duration:Time_ns.span ->
  submit:(Op.t -> unit) ->
  Engine.t ->
  t
(** Schedules the full open-loop workload on the engine: each client
    submits [rate] (default 200) ops/s for [duration], over the one
    million keys. Submission bookkeeping is the protocol's job: every
    protocol [submit] fires the observer's [on_submit]. *)

val total_submitted : t -> int
