open Domino_sim
open Domino_smr

(** The experiment-facing protocol selector, and the one place that
    names a protocol.

    Experiments and the CLI pick protocols with this plain variant
    (Domino's config knobs inline); {!resolve} maps a selection to its
    {!Protocol_intf.S} module, whose [P.name] is the selector's
    {!api_name}, and {!params} decodes the knobs into the typed
    {!Protocol_intf.params} record the unified API expects. *)

type t =
  | Domino of {
      additional_delay : Time_ns.span;
      percentile : float;
      every_replica_learns : bool;
      adaptive : bool;  (** §5.4 feedback controller *)
    }
  | Mencius
  | Epaxos
  | Multi_paxos
  | Fast_paxos

val domino_default : t
(** Domino with no additional delay, p95 estimates. *)

val domino_exec : t
(** Domino with the paper's +8 ms execution-latency setting (§7.2.3). *)

val all : t list
(** Every protocol once, Domino at {!domino_default}: the table the
    CLI's [--protocol] choices and the conformance tests range over. *)

val name : t -> string
(** Display name ("Multi-Paxos"). *)

val api_name : t -> string
(** The resolved module's [P.name] ("multipaxos"). *)

val resolve : t -> Protocol_intf.protocol
(** The selector's module. *)

val params : t -> Protocol_intf.params
(** The selector's knobs as the typed record, every other field at its
    {!Protocol_intf.default_params} value. *)

val params_under_faults : t -> Protocol_intf.params
(** {!params} for a run with faults injected. Every protocol then runs
    the one client-retry loop, {!Domino_smr.Retry} at its
    [default_policy] (800 ms, doubling, 6 attempts); only the resend
    rule differs. Domino's params arm it in-protocol — resends go
    through DM, failing over to another coordinator after 1 retry;
    the other protocols' params are unchanged, and the fabric wraps
    them in the generic resend through their own submit. *)
