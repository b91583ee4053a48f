open Domino_sim

type 'msg service = {
  slots : Time_ns.t array;  (** busy-until per worker *)
  cost : 'msg -> Time_ns.span;
  mutable busy : Time_ns.span;
}

type 'msg node_state = {
  mutable handler : (src:Nodeid.t -> 'msg -> unit) option;
  mutable clock : Clock.t;
  mutable up : bool;
  mutable service : 'msg service option;
}

type drop_reason = Src_down | Dst_down | Dst_crashed | No_handler

let drop_reason_string = function
  | Src_down -> "src_down"
  | Dst_down -> "dst_down"
  | Dst_crashed -> "dst_crashed"
  | No_handler -> "no_handler"

(* One in-flight message on a directed pair. The records live in a
   per-pair ring and are reused once their message delivers, so the
   steady-state send path allocates nothing — where it used to build
   two fresh closures per message. *)
type 'msg pending = {
  mutable p_at : Time_ns.t;
  mutable p_seq : int;
  mutable p_msg : 'msg;
  mutable p_sent_at : Time_ns.t;
  mutable p_epoch : int;
}

(* A directed (src, dst) pair: its in-flight ring plus one reusable
   [drain] closure that every delivery event on the pair shares.
   Delivery times are strictly increasing per pair (the FIFO clamp), so
   the k-th drain to fire unblocked always pops the ring head — the
   event <-> record pairing is implicit in FIFO order.

   [scheduled] counts drain events currently in the engine queue for
   this pair. A drain firing while the pair is partitioned consumes its
   event but leaves the record ringed; [len - scheduled] is then the
   stalled backlog that {!set_partition}'s heal re-schedules (one event
   per record, exactly like the old stash flush). *)
type 'msg pair = {
  pr_src : Nodeid.t;
  pr_dst : Nodeid.t;
  mutable ring : 'msg pending array;  (** circular, power-of-two capacity *)
  mutable head : int;
  mutable len : int;
  mutable scheduled : int;
  mutable drain : unit -> unit;
}

type 'msg t = {
  engine : Engine.t;
  nodes : 'msg node_state array;
  links : Link.t option array array;
  self_rng : Rng.t;
  (* FIFO state: earliest allowed delivery time per directed pair. *)
  last_delivery : Time_ns.t array array;
  (* Incarnation counter per node: a message addressed to epoch [e] of a
     node is dead once the node has crashed (epoch bumped), even if the
     node later recovers — TCP connections do not survive a reboot. *)
  epoch : int array;
  (* Partition masks. A blocked pair behaves like a TCP stall, not a
     drop: records stay in the pair ring and flush in FIFO order when
     the partition heals. *)
  blocked : bool array array;
  pairs : 'msg pair array array;
  (* Wipe-restart hooks: [on_wipe] drops the node's volatile protocol
     state and unsynced storage, returning the modeled recovery
     duration; [on_replay] rebuilds from stable storage at the restart
     instant. Installed by the protocol layer; nodes without hooks
     degrade to a plain (state-preserving) restart. *)
  on_wipe : (unit -> Time_ns.span) option array;
  on_replay : (unit -> unit) option array;
  mutable sent : int;
  mutable delivered : int;
  (* Observability hooks take labeled arguments instead of an event
     variant, so tracing a message allocates nothing. *)
  mutable on_sent :
    (seq:int -> src:Nodeid.t -> dst:Nodeid.t -> 'msg -> at:Time_ns.t -> unit)
    option;
  mutable on_delivered :
    (seq:int ->
    src:Nodeid.t ->
    dst:Nodeid.t ->
    'msg ->
    sent_at:Time_ns.t ->
    at:Time_ns.t ->
    unit)
    option;
  mutable on_dropped :
    (seq:int ->
    src:Nodeid.t ->
    dst:Nodeid.t ->
    'msg ->
    reason:drop_reason ->
    at:Time_ns.t ->
    unit)
    option;
  mutable on_drop :
    (reason:drop_reason ->
    seq:int ->
    src:Nodeid.t ->
    dst:Nodeid.t ->
    at:Time_ns.t ->
    unit)
    option;
}

let drop t ~seq ~src ~dst msg reason =
  (match t.on_drop with
  | None -> ()
  | Some f -> f ~reason ~seq ~src ~dst ~at:(Engine.now t.engine));
  match t.on_dropped with
  | None -> ()
  | Some f -> f ~seq ~src ~dst msg ~reason ~at:(Engine.now t.engine)

(* The delivery instant proper: epoch / liveness / handler checks, then
   the handler. Runs from a drain (instant-processing nodes) or from a
   service-completion event. *)
let deliver_core t ~seq ~src ~dst msg ~sent_at ~epoch =
  let node = t.nodes.(dst) in
  if t.epoch.(dst) <> epoch then drop t ~seq ~src ~dst msg Dst_crashed
  else if not node.up then drop t ~seq ~src ~dst msg Dst_down
  else begin
    match node.handler with
    | None -> drop t ~seq ~src ~dst msg No_handler
    | Some handler ->
      t.delivered <- t.delivered + 1;
      (match t.on_delivered with
      | None -> ()
      | Some f -> f ~seq ~src ~dst msg ~sent_at ~at:(Engine.now t.engine));
      handler ~src msg
  end

(* Fires once per message (scheduled at the send instant, so engine
   event order — and journal byte-identity — matches the one-closure-
   per-message scheme this replaces). Pops the ring head unless the
   pair is partitioned, in which case the record waits for the heal
   flush. *)
let drain_pair t pair () =
  pair.scheduled <- pair.scheduled - 1;
  if not t.blocked.(pair.pr_src).(pair.pr_dst) then begin
    let r = pair.ring.(pair.head) in
    pair.head <- (pair.head + 1) land (Array.length pair.ring - 1);
    pair.len <- pair.len - 1;
    let seq = r.p_seq
    and msg = r.p_msg
    and sent_at = r.p_sent_at
    and epoch = r.p_epoch in
    let src = pair.pr_src and dst = pair.pr_dst in
    match t.nodes.(dst).service with
    | None -> deliver_core t ~seq ~src ~dst msg ~sent_at ~epoch
    | Some service ->
      (* Pick the earliest-free worker. *)
      let best = ref 0 in
      Array.iteri
        (fun i busy_until ->
          if busy_until < service.slots.(!best) then best := i)
        service.slots;
      let now = Engine.now t.engine in
      let start = Time_ns.max now service.slots.(!best) in
      let cost = service.cost msg in
      let finish = Time_ns.add start cost in
      service.slots.(!best) <- finish;
      service.busy <- service.busy + cost;
      Engine.schedule_at t.engine ~at:finish (fun () ->
          deliver_core t ~seq ~src ~dst msg ~sent_at ~epoch)
  end

let create engine ~n =
  let t =
    {
      engine;
      nodes =
        Array.init n (fun _ ->
            { handler = None; clock = Clock.perfect; up = true; service = None });
      links = Array.make_matrix n n None;
      self_rng = Rng.split (Engine.rng engine);
      last_delivery = Array.make_matrix n n Time_ns.zero;
      epoch = Array.make n 0;
      blocked = Array.make_matrix n n false;
      pairs =
        Array.init n (fun src ->
            Array.init n (fun dst ->
                {
                  pr_src = src;
                  pr_dst = dst;
                  ring = [||];
                  head = 0;
                  len = 0;
                  scheduled = 0;
                  drain = ignore;
                }));
      on_wipe = Array.make n None;
      on_replay = Array.make n None;
      sent = 0;
      delivered = 0;
      on_sent = None;
      on_delivered = None;
      on_dropped = None;
      on_drop = None;
    }
  in
  Array.iter
    (fun row -> Array.iter (fun pair -> pair.drain <- drain_pair t pair) row)
    t.pairs;
  t

let set_message_hooks t ~sent ~delivered ~dropped =
  t.on_sent <- Some sent;
  t.on_delivered <- Some delivered;
  t.on_dropped <- Some dropped

let engine t = t.engine

let size t = Array.length t.nodes

let set_link t ~src ~dst link = t.links.(src).(dst) <- Some link

let link t ~src ~dst =
  match t.links.(src).(dst) with
  | Some l -> l
  | None ->
    invalid_arg
      (Printf.sprintf "Fifo_net.link: no link n%d -> n%d" src dst)

let set_clock t node clock = t.nodes.(node).clock <- clock

let clock t node = t.nodes.(node).clock

let local_time t node = Clock.now t.nodes.(node).clock (Engine.now t.engine)

let set_handler t node handler = t.nodes.(node).handler <- Some handler

(* Self-delivery still goes through the event queue (never synchronous:
   protocol handlers assume messages arrive "later") with a small
   in-process latency. *)
let self_delay t = Time_ns.us 5 + Rng.int t.self_rng (Time_ns.us 5)

let delay_for t ~src ~dst =
  if src = dst then self_delay t
  else Link.sample (link t ~src ~dst) ~now:(Engine.now t.engine)

(* Double the pair ring. [msg] (the message being appended) fills the
   fresh records — the ring can only grow mid-send, so a value of the
   message type is always in hand. *)
let ring_grow pair msg =
  let cap = Array.length pair.ring in
  let ncap = if cap = 0 then 4 else 2 * cap in
  let nring =
    Array.init ncap (fun i ->
        if i < pair.len then pair.ring.((pair.head + i) land (cap - 1))
        else { p_at = 0; p_seq = 0; p_msg = msg; p_sent_at = 0; p_epoch = 0 })
  in
  pair.ring <- nring;
  pair.head <- 0

let send t ~src ~dst msg =
  if not t.nodes.(src).up then drop t ~seq:(-1) ~src ~dst msg Src_down
  else begin
    let seq = t.sent in
    t.sent <- t.sent + 1;
    let now = Engine.now t.engine in
    let raw = Time_ns.add now (delay_for t ~src ~dst) in
    let at = Time_ns.max raw (Time_ns.add t.last_delivery.(src).(dst) 1) in
    t.last_delivery.(src).(dst) <- at;
    (match t.on_sent with
    | None -> ()
    | Some f -> f ~seq ~src ~dst msg ~at:now);
    let pair = t.pairs.(src).(dst) in
    if pair.len = Array.length pair.ring then ring_grow pair msg;
    (* The destination incarnation this message is addressed to: if the
       node crashes (even if it recovers) before delivery, the message
       is dropped at delivery time rather than delivered stale. *)
    let r = pair.ring.((pair.head + pair.len) land (Array.length pair.ring - 1)) in
    r.p_at <- at;
    r.p_seq <- seq;
    r.p_msg <- msg;
    r.p_sent_at <- now;
    r.p_epoch <- t.epoch.(dst);
    pair.len <- pair.len + 1;
    pair.scheduled <- pair.scheduled + 1;
    Engine.schedule_at t.engine ~at pair.drain
  end

let broadcast t ~src ~dsts f = List.iter (fun dst -> send t ~src ~dst (f dst)) dsts

let set_service t node ~workers ~cost =
  if workers <= 0 then invalid_arg "Fifo_net.set_service: workers";
  t.nodes.(node).service <-
    Some { slots = Array.make workers Time_ns.zero; cost; busy = 0 }

let service_busy_ns t node =
  match t.nodes.(node).service with None -> 0 | Some s -> s.busy

let crash t node =
  if t.nodes.(node).up then begin
    t.nodes.(node).up <- false;
    t.epoch.(node) <- t.epoch.(node) + 1
  end

let restart t node = t.nodes.(node).up <- true

let recover = restart

let set_wipe_hook t node ~wipe ~replay =
  t.on_wipe.(node) <- Some wipe;
  t.on_replay.(node) <- Some replay

let wipe_restart t node =
  (* A wipe of a live node is an instant kill + reboot: bump the epoch
     so in-flight messages addressed to the old incarnation die. *)
  if t.nodes.(node).up then crash t node;
  let span = match t.on_wipe.(node) with None -> 0 | Some f -> f () in
  Engine.schedule t.engine ~delay:span (fun () ->
      t.nodes.(node).up <- true;
      match t.on_replay.(node) with None -> () | Some f -> f ());
  span

let is_up t node = t.nodes.(node).up

let set_partition t ~src ~dst blocked =
  let was = t.blocked.(src).(dst) in
  t.blocked.(src).(dst) <- blocked;
  if was && not blocked then begin
    (* Flush the stalled records at the heal instant, one event each in
       FIFO order (same-instant events run in scheduling order). Each
       drain re-checks the mask, so re-partitioning before the flush
       fires just re-stalls. *)
    let pair = t.pairs.(src).(dst) in
    let deficit = pair.len - pair.scheduled in
    for _ = 1 to deficit do
      Engine.schedule t.engine ~delay:0 pair.drain
    done;
    pair.scheduled <- pair.scheduled + deficit
  end

let partitioned t ~src ~dst = t.blocked.(src).(dst)

let set_drop_hook t f = t.on_drop <- Some f

let messages_sent t = t.sent

let messages_delivered t = t.delivered
