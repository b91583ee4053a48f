open Domino_sim
open Domino_net

type 'msg t = {
  engine : Engine.t;
  service_time : Time_ns.span;
  inner : src:Nodeid.t -> 'msg -> unit;
  mutable busy_until : Time_ns.t;
  mutable processed : int;
  mutable busy_time : Time_ns.span;
  mutable depth : int;
}

let wrap engine ~service_time inner =
  {
    engine;
    service_time;
    inner;
    busy_until = Time_ns.zero;
    processed = 0;
    busy_time = 0;
    depth = 0;
  }

let handler t ~src msg =
  let now = Engine.now t.engine in
  let start = Time_ns.max now t.busy_until in
  let finish = Time_ns.add start t.service_time in
  t.busy_until <- finish;
  t.busy_time <- t.busy_time + t.service_time;
  t.depth <- t.depth + 1;
  ignore
    (Engine.schedule_at t.engine ~at:finish (fun () ->
         t.depth <- t.depth - 1;
         t.processed <- t.processed + 1;
         t.inner ~src msg))

let processed t = t.processed

let busy_time t = t.busy_time

let queue_depth t = t.depth

(* At-most-once execution filter: client retries can drive the same op
   through consensus twice (two commit decisions for two instances
   carrying the same op id); the service layer must execute it once. *)
module Dedup = struct
  type t = {
    seen : unit Op.Idtbl.t;
    mutable dups : int;
  }

  let create () = { seen = Op.Idtbl.create 1; dups = 0 }

  let fresh t op =
    let id = Op.id op in
    if Op.Idtbl.mem t.seen id then begin
      t.dups <- t.dups + 1;
      false
    end
    else begin
      Op.Idtbl.add t.seen id ();
      true
    end

  let duplicates t = t.dups
end
