open Domino_sim
open Domino_net
open Domino_obs

let fault jsink engine name detail =
  if Journal.enabled jsink then
    Journal.emit jsink (Journal.Fault { name; detail; at = Engine.now engine })

let apply_partition net ~a ~b ~sym blocked =
  List.iter
    (fun x ->
      List.iter
        (fun y ->
          if x <> y then begin
            Fifo_net.set_partition net ~src:x ~dst:y blocked;
            if sym then Fifo_net.set_partition net ~src:y ~dst:x blocked
          end)
        b)
    a

let schedule_event net jsink { Plan.at; action } =
  let engine = Fifo_net.engine net in
  let arm = Engine.schedule_at engine in
  match action with
  | Plan.Crash { node } ->
    arm ~at (fun () ->
        Fifo_net.crash net node;
        fault jsink engine "crash" (Printf.sprintf "node=%d" node))
  | Plan.Recover { node } ->
    arm ~at (fun () ->
        Fifo_net.recover net node;
        fault jsink engine "recover" (Printf.sprintf "node=%d" node))
  | Plan.Wipe { node } ->
    arm ~at (fun () ->
        fault jsink engine "wipe" (Printf.sprintf "node=%d" node);
        let span = Fifo_net.wipe_restart net node in
        (* The restart thunk was scheduled first, so by the time this
           fires the node is back up and has replayed its log. *)
        Engine.schedule engine ~delay:span (fun () ->
            if Journal.enabled jsink then
              Journal.emit jsink
                (Journal.Recovery
                   {
                     node;
                     stage = "up";
                     detail = Printf.sprintf "after_us=%d" (span / Time_ns.us 1);
                     at = Engine.now engine;
                   })))
  | Plan.Partition { a; b; sym; until } ->
    let detail =
      Printf.sprintf "a=%s b=%s%s"
        (String.concat "," (List.map string_of_int a))
        (String.concat "," (List.map string_of_int b))
        (if sym then " sym" else "")
    in
    arm ~at (fun () ->
        apply_partition net ~a ~b ~sym true;
        fault jsink engine "partition" detail);
    arm ~at:until (fun () ->
        apply_partition net ~a ~b ~sym false;
        fault jsink engine "heal" detail)
  | Plan.Degrade { src; dst; delay; loss; until } ->
    arm ~at (fun () ->
        let link = Fifo_net.link net ~src ~dst in
        (* Save at the episode start, restore at its end. Overlapping
           episodes on the same link compose last-writer-wins. *)
        let saved_owd = Link.base_owd link in
        let saved_loss = Link.loss link in
        Link.set_base_owd link (Time_ns.add saved_owd delay);
        Link.set_loss link loss;
        fault jsink engine "degrade"
          (Printf.sprintf "n%d>n%d delay=+%dms loss=%g" src dst
             (delay / Time_ns.ms 1) loss);
        Engine.schedule_at engine ~at:until (fun () ->
            Link.set_base_owd link saved_owd;
            Link.set_loss link saved_loss;
            fault jsink engine "restore" (Printf.sprintf "n%d>n%d" src dst)))
  | Plan.Skew { node; delta } ->
    arm ~at (fun () ->
        let c = Fifo_net.clock net node in
        (* [Clock.perfect] is a shared value; give the node its own
           clock before stepping it. *)
        if c == Clock.perfect then
          Fifo_net.set_clock net node (Clock.create ~offset:delta ())
        else Clock.set_offset c (Time_ns.add (Clock.offset c) delta);
        fault jsink engine "skew"
          (Printf.sprintf "node=%d delta=%dms" node (delta / Time_ns.ms 1)))
  | Plan.Migrate _ | Plan.Transfer _ | Plan.Reconfig _ | Plan.Roll _ ->
    (* Not network faults: the shard fabric splits the orchestrated
       verbs out of the plan (Plan.partition_control) and drives them
       through Shard.Migrate and Smr.Reconfig (rolls included). Reaching
       here (e.g. such an event left in a per-group plan) is a no-op. *)
    ()

let install plan ~net ~journal =
  (match Plan.validate ~n:(Fifo_net.size net) plan with
  | Ok () -> ()
  | Error e -> invalid_arg ("Fault.Inject.install: " ^ e));
  let engine = Fifo_net.engine net in
  (* [fault.drop] repeats the regular [drop] line per message: detail
     tier, built only when the journal keeps detail. *)
  if Journal.enabled journal then
    Fifo_net.set_drop_hook net (fun ~reason ~seq ~src ~dst ~at ->
        match reason with
        | Fifo_net.No_handler -> ()
        | _ when not (Journal.detail journal) -> ()
        | _ ->
          Journal.emit journal
            (Journal.Fault
               {
                 name = "drop";
                 detail =
                   Printf.sprintf "seq=%d n%d>n%d reason=%s" seq src dst
                     (Fifo_net.drop_reason_string reason);
                 at;
               }));
  List.iter (schedule_event net journal) plan;
  ignore engine
