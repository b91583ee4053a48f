open Domino_sim

type policy = { timeout : Time_ns.span; max_attempts : int }

let default_policy = { timeout = Time_ns.ms 800; max_attempts = 6 }

type entry = {
  op : Op.t;
  mutable attempts : int;
  mutable timeout : Time_ns.span;
  mutable timer : Engine.event_id option;
}

type t = {
  engine : Engine.t;
  policy : policy;
  mutable resend : Op.t -> attempt:int -> unit;
  pending : entry Op.Idtbl.t;
  mutable retries : int;
  mutable abandoned : int;
}

let create ?(policy = default_policy) engine =
  {
    engine;
    policy;
    resend =
      (fun _ ~attempt:_ -> invalid_arg "Retry: resend function not set");
    pending = Op.Idtbl.create 64;
    retries = 0;
    abandoned = 0;
  }

let set_resend t f = t.resend <- f

let rec arm t e =
  e.timer <-
    Some
      (Engine.schedule_cancellable t.engine ~delay:e.timeout (fun () ->
           on_timeout t e))

and on_timeout t e =
  e.timer <- None;
  let id = Op.id e.op in
  if Op.Idtbl.mem t.pending id then begin
    if e.attempts >= t.policy.max_attempts then begin
      t.abandoned <- t.abandoned + 1;
      Op.Idtbl.remove t.pending id
    end
    else begin
      e.attempts <- e.attempts + 1;
      t.retries <- t.retries + 1;
      e.timeout <- 2 * e.timeout;
      t.resend e.op ~attempt:e.attempts;
      arm t e
    end
  end

let track t op =
  let id = Op.id op in
  if not (Op.Idtbl.mem t.pending id) then begin
    let e = { op; attempts = 1; timeout = t.policy.timeout; timer = None } in
    Op.Idtbl.replace t.pending id e;
    arm t e
  end

let submit t op =
  t.resend op ~attempt:1;
  track t op

let on_commit t op =
  let id = Op.id op in
  match Op.Idtbl.find_opt t.pending id with
  | None -> ()
  | Some e ->
    (match e.timer with
    | Some timer -> Engine.cancel t.engine timer
    | None -> ());
    e.timer <- None;
    Op.Idtbl.remove t.pending id

let retries t = t.retries

let abandoned t = t.abandoned

let inflight t = Op.Idtbl.length t.pending
