open Domino_sim

type t = {
  journal : Journal.t;
  sink : Journal.sink;
  mutable probes : (string * (unit -> float)) list;  (** registration order *)
  mutable clock : Timeline.Clock.t option;
}

let attach ?sample_every ?timeline journal engine =
  let sink = Journal.sink journal in
  (match timeline with
  | None -> ()
  | Some agg -> Journal.add_tap journal (Timeline.tap agg));
  let t = { journal; sink; probes = []; clock = None } in
  Engine.set_timer_hook engine (fun at ->
      Journal.emit sink (Journal.Timer_fired { at }));
  (match sample_every with
  | None -> ()
  | Some interval ->
    (* The sampling cadence is a Timeline.Clock so other windowed
       consumers (e.g. the shard fabric's hot-shard detector) can share
       the same driver. Clock.create schedules the same Engine.every
       the sampler always used, so journal bytes are unchanged. *)
    let clock = Timeline.Clock.create engine ~window:interval in
    Timeline.Clock.on_window clock (fun ~index:_ ~now:at ->
        List.iter
          (fun (name, probe) ->
            Journal.emit sink (Journal.Sample { name; value = probe (); at }))
          t.probes);
    t.clock <- Some clock);
  t

let add_probe t name probe = t.probes <- t.probes @ [ (name, probe) ]

let journal t = t.journal

let sink t = t.sink

let clock t = t.clock
