(* Quickstart: a three-replica Domino deployment in one minute.

   We place replicas in Washington, Paris and Sydney (the paper's Globe
   setting), put one client in Virginia, and submit a handful of writes.
   The client probes the replicas, predicts request arrival times, and
   commits through DFP's one-roundtrip fast path.

     dune exec examples/quickstart.exe *)

open Domino_sim
open Domino_net
open Domino_smr
open Domino_core

let () =
  (* 1. A deterministic simulation engine: everything below is
     reproducible from this seed. *)
  let engine = Engine.create ~seed:7L () in

  (* 2. A WAN, built when the protocol asks for its network: nodes 0-2
     are replicas in WA/PR/NSW, node 3 is a client in VA. Link delays
     come from the paper's measured RTT matrix. *)
  let placement = [| "WA"; "PR"; "NSW"; "VA" |] in
  let make_net ~classify:_ ~op_of:_ =
    Topology.make_net engine Topology.globe ~placement
  in

  (* 3. Domino with default paper settings (10ms probes, p95 estimates,
     1s window). The observer reports commits and executions. *)
  let committed = ref 0 in
  let observer =
    {
      Observer.on_submit =
        (fun op ~now ->
          Format.printf "submitting %a at %a@." Op.pp op Time_ns.pp_ms now);
      on_commit =
        (fun op ~now ->
          incr committed;
          Format.printf "  committed %a at %a@." Op.pp op Time_ns.pp_ms now);
      on_execute =
        (fun ~replica op ~now ->
          if replica = 0 then
            Format.printf "  executed  %a at replica WA, %a@." Op.pp op
              Time_ns.pp_ms now);
      on_phase = (fun ~node:_ ~op:_ ~name:_ ~dur:_ ~now:_ -> ());
    }
  in
  let replicas = [| 0; 1; 2 |] in
  let env =
    Durable.standalone engine ~replicas ~observer { Durable.make = make_net }
  in
  let domino = Domino.create env (Config.make ~replicas ()) in

  (* 4. Let the measurement subsystem warm up (a second of probing),
     then submit ten writes, 100ms apart. *)
  for i = 0 to 9 do
    ignore
      (Engine.schedule_at engine
         ~at:(Time_ns.sec 2 + (i * Time_ns.ms 100))
         (fun () ->
           let op = Op.make ~client:3 ~seq:i ~key:i ~value:(Int64.of_int i) in
           Domino.submit domino op))
  done;

  (* 5. Run the virtual clock. *)
  Engine.run ~until:(Time_ns.sec 5) engine;

  let stats = Domino.stats domino in
  Format.printf
    "@.%d/10 committed. DFP submissions: %d, DM submissions: %d, fast \
     decisions: %d, slow: %d, late decisions (must be 0): %d@."
    !committed stats.Domino.dfp_submissions stats.Domino.dm_submissions
    stats.Domino.dfp_fast_decisions stats.Domino.dfp_slow_decisions
    stats.Domino.late_decisions
