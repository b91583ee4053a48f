open Domino_sim

type t = {
  journal : Journal.t;
  sink : Journal.sink;
  mutable probes : (string * (unit -> float)) list;  (** registration order *)
}

let sample_every = Time_ns.ms 100

let attach ?timeline journal engine =
  let sink = Journal.sink journal in
  (match timeline with
  | None -> ()
  | Some agg -> Journal.add_tap ~reads:Outline journal (Timeline.tap agg));
  let t = { journal; sink; probes = [] } in
  Engine.set_timer_hook engine (fun at ->
      if Journal.detail sink then
        Journal.emit sink (Journal.Timer_fired { at }));
  (* Clock.create schedules the same Engine.every the sampler always
     used, so journal bytes are unchanged. *)
  let clock = Timeline.Clock.create engine ~window:sample_every in
  Timeline.Clock.on_window clock (fun ~index:_ ~now:at ->
      List.iter
        (fun (name, probe) ->
          Journal.emit sink (Journal.Sample { name; value = probe (); at }))
        t.probes);
  t

let add_probe t name probe = t.probes <- t.probes @ [ (name, probe) ]

let journal t = t.journal

let sink t = t.sink
