(** Instrumentation the benchmark attaches from outside the library.

    {!wrap} turns a protocol module into a pass-through one that keeps
    its [name] and delegates every function, so journal bytes are
    unchanged. Its [create] installs an {!Domino_sim.Engine} event hook
    on the group's engine, which is how the benchmark sees where
    [Fabric.run] stands without any library change. *)

open Domino_smr

type mode =
  | Plain
      (** Timestamp the first simulated event, then clear the hook: an
          untraced run pays one hook call in total. *)
  | Setup_only
      (** Timestamp the first event and raise {!Setup_done} from it,
          ending [Fabric.run] right after its set-up. *)
  | Traced
      (** Timestamp the first and last events, count events, time every
          [submit], and sample Domino's [estimator_err_ms] gauge every
          100 ms of sim time. *)

exception Setup_done

type t

val create : mode -> t

val wrap : t -> Protocol_intf.protocol -> Protocol_intf.protocol

val now : unit -> float
(** Wall clock, seconds. *)

val first_event : t -> float
(** Wall time of the first simulated event; [nan] before it fires. *)

val last_event : t -> float
(** [Traced] only: wall time of the latest simulated event. *)

val events : t -> int
(** [Traced] only: events the hook saw. *)

val submit_ns : t -> float
(** [Traced] only: mean wall ns per wrapped [submit]; [0] without any. *)

val estimator_err_ms : t -> float
(** [Traced] only: mean of the sampled [estimator_err_ms] gauges over
    every Domino group; [0] when no group has one. *)
