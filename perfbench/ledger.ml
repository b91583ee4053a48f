open Domino_sim
open Domino_smr

type mode = Plain | Setup_only | Traced

exception Setup_done

type t = {
  mode : mode;
  mutable estimators : (unit -> float) list;
  mutable first_event : float;
  mutable last_event : float;
  mutable events : int;
  mutable submits : int;
  mutable submit_s : float;
  mutable est_sum : float;
  mutable est_n : int;
  mutable next_sample : Time_ns.t;
}

let create mode =
  {
    mode;
    estimators = [];
    first_event = Float.nan;
    last_event = Float.nan;
    events = 0;
    submits = 0;
    submit_s = 0.;
    est_sum = 0.;
    est_n = 0;
    next_sample = Time_ns.zero;
  }

let now = Unix.gettimeofday

(* Same cadence as the flight recorder's gauge sampler. *)
let sample_every = Time_ns.ms 100

let sample_estimators l =
  List.iter
    (fun gauge ->
      let v = gauge () in
      if Float.is_finite v then begin
        l.est_sum <- l.est_sum +. v;
        l.est_n <- l.est_n + 1
      end)
    l.estimators

let hook l engine at =
  match l.mode with
  | Plain ->
    l.first_event <- now ();
    Engine.clear_event_hook engine
  | Setup_only ->
    l.first_event <- now ();
    raise Setup_done
  | Traced ->
    let t = now () in
    if l.events = 0 then l.first_event <- t;
    l.last_event <- t;
    l.events <- l.events + 1;
    if at >= l.next_sample then begin
      sample_estimators l;
      l.next_sample <- (at / sample_every + 1) * sample_every
    end

let wrap l (module P : Protocol_intf.S) : Protocol_intf.protocol =
  (module struct
    type t = P.t

    let name = P.name

    let create (env : Protocol_intf.Group.env) =
      let p = P.create env in
      let engine = env.Protocol_intf.Group.cluster.Protocol_intf.Cluster.engine in
      (* Every group of a fabric shares the engine: re-installing the
         same hook for the next group is harmless. *)
      Engine.set_event_hook engine (hook l engine);
      (match List.assoc_opt "estimator_err_ms" (P.gauges p) with
      | Some g -> l.estimators <- l.estimators @ [ g ]
      | None -> ());
      p

    let submit p op =
      match l.mode with
      | Traced ->
        let t0 = now () in
        P.submit p op;
        l.submit_s <- l.submit_s +. (now () -. t0);
        l.submits <- l.submits + 1
      | Plain | Setup_only -> P.submit p op

    let committed_count = P.committed_count
    let fast_slow_counts = P.fast_slow_counts
    let extra_stats = P.extra_stats
    let gauges = P.gauges
    let control = P.control
  end)

let first_event l = l.first_event
let last_event l = l.last_event
let events l = l.events

let submit_ns l =
  if l.submits = 0 then 0. else l.submit_s *. 1e9 /. float_of_int l.submits

let estimator_err_ms l =
  if l.est_n = 0 then 0. else l.est_sum /. float_of_int l.est_n
