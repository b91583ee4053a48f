open Domino_sim
open Domino_smr

type t =
  | Domino of {
      additional_delay : Time_ns.span;
      percentile : float;
      every_replica_learns : bool;
      adaptive : bool;
    }
  | Mencius
  | Epaxos
  | Multi_paxos
  | Fast_paxos

let domino_default =
  Domino
    {
      additional_delay = 0;
      percentile = 95.;
      every_replica_learns = false;
      adaptive = false;
    }

let domino_exec =
  Domino
    {
      additional_delay = Time_ns.ms 8;
      percentile = 95.;
      every_replica_learns = false;
      adaptive = false;
    }

let name = function
  | Domino _ -> "Domino"
  | Mencius -> "Mencius"
  | Epaxos -> "EPaxos"
  | Multi_paxos -> "Multi-Paxos"
  | Fast_paxos -> "Fast Paxos"

let api_name = function
  | Domino _ -> "domino"
  | Mencius -> "mencius"
  | Epaxos -> "epaxos"
  | Multi_paxos -> "multipaxos"
  | Fast_paxos -> "fastpaxos"

(* One decode site: the selector's knobs land in the typed params
   record with exhaustive defaults for everything it doesn't set. *)
let params = function
  | Domino { additional_delay; percentile; every_replica_learns; adaptive } ->
    {
      Protocol_intf.default_params with
      Protocol_intf.additional_delay;
      percentile;
      every_replica_learns;
      adaptive;
    }
  | Mencius | Epaxos | Multi_paxos | Fast_paxos -> Protocol_intf.default_params

(* Under faults every group runs the shared [Retry] loop at
   [Retry.default_policy]. Domino arms it in-protocol through its
   params, so its clients resend through DM with leader failover; the
   fabric wraps every group whose params leave [retry_timeout = 0] in
   the generic resend (the protocol's own submit) instead. *)
let params_under_faults proto =
  let p = params proto in
  match proto with
  | Domino _ ->
    {
      p with
      Protocol_intf.retry_timeout = Retry.default_policy.Retry.timeout;
      retry_max_attempts = Retry.default_policy.Retry.max_attempts;
      retry_failover_after = 1;
    }
  | Mencius | Epaxos | Multi_paxos | Fast_paxos -> p

let of_api_name = function
  | "domino" -> Some domino_default
  | "mencius" -> Some Mencius
  | "epaxos" -> Some Epaxos
  | "multipaxos" -> Some Multi_paxos
  | "fastpaxos" -> Some Fast_paxos
  | _ -> None

(* [Protocol_intf.register] hands back the module it registered, so
   resolution binds each instance once — no name lookup, no
   re-registration per run. Registration runs while this module
   initialises, before any sweep fans runs out across domains: OCaml 5
   raises [CamlinternalLazy.Undefined] when two domains force one
   [lazy] at once, so nothing here is lazy. *)
let domino, mencius, epaxos, multipaxos, fastpaxos =
  let r p = Protocol_intf.register p in
  ( r (module Domino_core.Domino.Api : Protocol_intf.S),
    r (module Domino_proto.Mencius.Api : Protocol_intf.S),
    r (module Domino_proto.Epaxos.Api : Protocol_intf.S),
    r (module Domino_proto.Multipaxos.Api : Protocol_intf.S),
    r (module Domino_proto.Fastpaxos.Api : Protocol_intf.S) )

let resolve = function
  | Domino _ -> domino
  | Mencius -> mencius
  | Epaxos -> epaxos
  | Multi_paxos -> multipaxos
  | Fast_paxos -> fastpaxos
