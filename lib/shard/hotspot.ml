open Domino_obs

type t = {
  groups : int;
  factor : float;
  mutable last : float array;
  flags : int array;
  streaks : int array;
  mutable hottest : int;
  mutable checks : int;
}

(* Consecutive hot windows before [on_hot] fires. *)
let hysteresis = 2

let create clock ~groups ?(factor = 2.) ?on_hot ~loads ~journal () =
  if groups <= 0 then invalid_arg "Hotspot.create: groups <= 0";
  let t =
    {
      groups;
      factor;
      last = Array.make groups 0.;
      flags = Array.make groups 0;
      streaks = Array.make groups 0;
      hottest = -1;
      checks = 0;
    }
  in
  Timeline.Clock.on_window clock (fun ~index:_ ~now ->
      let cur = loads () in
      if Array.length cur <> groups then
        invalid_arg "Hotspot: load vector size changed";
      let delta = Array.mapi (fun g c -> c -. t.last.(g)) cur in
      t.last <- cur;
      t.checks <- t.checks + 1;
      let total = Array.fold_left ( +. ) 0. delta in
      let mean = total /. float_of_int groups in
      let hottest = ref (-1) and hi = ref 0. in
      Array.iteri
        (fun g d ->
          if d > !hi then begin
            hi := d;
            hottest := g
          end)
        delta;
      t.hottest <- !hottest;
      (* A shard is hot when its share of the window's load is [factor]
         times the even split — the same signal a slot rebalancer would
         act on. Every hot window is flagged and journaled; [on_hot]
         only fires once the group has stayed hot for two consecutive
         windows, so a single skewed window can't trigger a
         migration (the ping-pong damper). *)
      if groups > 1 && mean > 0. then
        Array.iteri
          (fun g d ->
            if d > t.factor *. mean then begin
              t.flags.(g) <- t.flags.(g) + 1;
              t.streaks.(g) <- t.streaks.(g) + 1;
              if Journal.enabled journal then
                Journal.emit journal
                  (Journal.Sample
                     {
                       name = Printf.sprintf "fabric.hot.g%d" g;
                       value = d;
                       at = now;
                     });
              if t.streaks.(g) >= hysteresis then
                match on_hot with Some f -> f ~g | None -> ()
            end
            else t.streaks.(g) <- 0)
          delta
      else Array.fill t.streaks 0 groups 0);
  t

let flags t = Array.copy t.flags

let hottest t = t.hottest

let checks t = t.checks

let probe t () = float_of_int t.hottest
