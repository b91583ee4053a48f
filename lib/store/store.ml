open Domino_sim
open Domino_obs

type sync_mode = Immediate | Batched of Time_ns.span

type params = {
  sync_latency : Time_ns.span;
  append_latency : Time_ns.span;
  snapshot_latency : Time_ns.span;
  replay_per_record : Time_ns.span;
  mode : sync_mode;
}

(* The default disk is a capacitor-backed (power-loss-protected) NVMe
   device: flushes acknowledge from the protected write cache, so an
   fsync barrier costs tens of microseconds, not milliseconds. Slower
   disks (cloud block stores, consumer SSDs) are modeled by raising
   [sync_latency]; see the fsync-cost experiment. *)
let default_params =
  {
    sync_latency = Time_ns.us 40;
    append_latency = Time_ns.ns 500;
    snapshot_latency = Time_ns.ms 2;
    replay_per_record = Time_ns.ns 500;
    mode = Immediate;
  }

type record = ..

(* Filler for log slots that hold no record; never handed out. *)
type record += Hole

type t = {
  engine : Engine.t;
  node : int;
  params : params;
  journal : Journal.sink;
  (* The log is one array: [log.(i)] holds record [base + i], for
     [base <= base + i < appended]. Records below [base] are covered by
     the snapshot. [durable_upto] is the disk frontier: records in
     [base, durable_upto) survive a wipe, [durable_upto, appended) do
     not. *)
  mutable log : record array;
  mutable base : int;
  mutable appended : int;
  mutable durable_upto : int;
  mutable snap : (string * int) option;
  mutable waiting : (unit -> unit) list;
  mutable barrier_open : bool;
  mutable inflight : bool;
  (* Bumped by [wipe]: completions belonging to a previous incarnation
     check it and die, like in-flight messages to a crashed node. *)
  mutable epoch : int;
  mutable n_appends : int;
  mutable n_syncs : int;
  mutable n_sync_writes : int;
  mutable n_truncated : int;
  mutable n_snapshots : int;
  mutable n_replayed : int;
  mutable n_lost : int;
  mutable n_wipes : int;
  mutable recovery_spans : Time_ns.span list;
}

let create engine ~node ~params ~journal =
  {
    engine;
    node;
    params;
    journal;
    log = Array.make 64 Hole;
    base = 0;
    appended = 0;
    durable_upto = 0;
    snap = None;
    waiting = [];
    barrier_open = false;
    inflight = false;
    epoch = 0;
    n_appends = 0;
    n_syncs = 0;
    n_sync_writes = 0;
    n_truncated = 0;
    n_snapshots = 0;
    n_replayed = 0;
    n_lost = 0;
    n_wipes = 0;
    recovery_spans = [];
  }

let node t = t.node

let appended t = t.appended

let durable_upto t = t.durable_upto

let unsynced_count t = t.appended - t.durable_upto

(* Journal details are built only when the journal keeps them:
   [append] and [sync] run on every write, and a run without a journal
   should not format strings it throws away. [recording] guards the
   outline events (syncs, recoveries); [detailed] the detail tier
   (appends, snapshots, truncations, [sync_wait] spans), which a
   timeline-only journal does not record. *)
let recording t = Journal.enabled t.journal

let detailed t = Journal.detail t.journal

let store_ev t op detail =
  Journal.emit t.journal
    (Journal.Store_ev { node = t.node; op; detail; at = Engine.now t.engine })

let recovery_ev t stage detail =
  Journal.emit t.journal
    (Journal.Recovery
       { node = t.node; stage; detail; at = Engine.now t.engine })

(* "k1=v1 k2=v2 ...", integers written by the journal's writer. *)
let ints fields =
  let b = Buffer.create 32 in
  List.iteri
    (fun i (key, v) ->
      if i > 0 then Buffer.add_char b ' ';
      Buffer.add_string b key;
      Buffer.add_char b '=';
      Journal.add_int b v)
    fields;
  Buffer.contents b

(* Release the records in log slots [from, upto) to the GC. *)
let clear t ~from ~upto = Array.fill t.log from (upto - from) Hole

let append t ~kind record =
  let idx = t.appended in
  let slot = idx - t.base in
  if slot = Array.length t.log then begin
    let log = Array.make (2 * slot) Hole in
    Array.blit t.log 0 log 0 slot;
    t.log <- log
  end;
  t.log.(slot) <- record;
  t.appended <- idx + 1;
  t.n_appends <- t.n_appends + 1;
  if detailed t then
    store_ev t "append" (ints [ ("rec", idx) ] ^ " kind=" ^ kind);
  idx

(* One fsync barrier: everything appended before the barrier starts is
   on disk when it completes. Requests arriving while a barrier is in
   flight coalesce into the next one (group commit). *)
let rec start_barrier t =
  if (not t.inflight) && t.waiting <> [] then begin
    t.inflight <- true;
    let cbs = List.rev t.waiting in
    t.waiting <- [];
    let upto = t.appended in
    let fresh = upto - t.durable_upto in
    let dur =
      Time_ns.add t.params.sync_latency
        (t.params.append_latency * Stdlib.max 0 fresh)
    in
    let started = Engine.now t.engine in
    t.n_syncs <- t.n_syncs + 1;
    t.n_sync_writes <- t.n_sync_writes + Stdlib.max 0 fresh;
    if recording t then
      Journal.emit t.journal
        (Journal.Store_sync
           {
             node = t.node;
             recs = fresh;
             upto;
             dur_us = dur / Time_ns.us 1;
             at = started;
           });
    let epoch = t.epoch in
    Engine.schedule t.engine ~delay:dur (fun () ->
        if t.epoch = epoch then begin
          t.inflight <- false;
          if upto > t.durable_upto then t.durable_upto <- upto;
          if detailed t && dur > 0 then
            Journal.emit t.journal
              (Journal.Phase
                 {
                   node = t.node;
                   op = None;
                   name = "sync_wait";
                   dur;
                   at = started;
                 });
          List.iter (fun k -> k ()) cbs;
          start_barrier t
        end)
  end

let sync t k =
  t.waiting <- k :: t.waiting;
  match t.params.mode with
  | Immediate -> start_barrier t
  | Batched window ->
    if (not t.barrier_open) && not t.inflight then begin
      t.barrier_open <- true;
      let epoch = t.epoch in
      Engine.schedule t.engine ~delay:window (fun () ->
          if t.epoch = epoch then begin
            t.barrier_open <- false;
            start_barrier t
          end)
    end

let append_sync t ~kind record k =
  ignore (append t ~kind record);
  sync t k

let snapshot t blob ~upto =
  if upto > t.appended then invalid_arg "Store.snapshot: upto > appended";
  t.n_snapshots <- t.n_snapshots + 1;
  if detailed t then
    store_ev t "snapshot"
      (ints [ ("upto", upto); ("bytes", String.length blob) ]);
  let epoch = t.epoch in
  Engine.schedule t.engine ~delay:t.params.snapshot_latency (fun () ->
      if t.epoch = epoch then begin
        (match t.snap with
        | Some (_, prev) when prev >= upto -> ()
        | _ -> t.snap <- Some (blob, upto));
        (* The snapshot covers every record below [upto]: drop that
           prefix of the log. [cut] counts the durable records among
           them. *)
        let cut = Stdlib.max 0 (Stdlib.min upto t.durable_upto - t.base) in
        if upto > t.base then begin
          let used = t.appended - t.base and dropped = upto - t.base in
          Array.blit t.log dropped t.log 0 (used - dropped);
          clear t ~from:(used - dropped) ~upto:used;
          t.base <- upto
        end;
        t.durable_upto <- Stdlib.max t.durable_upto upto;
        t.n_truncated <- t.n_truncated + cut;
        if cut > 0 && detailed t then
          store_ev t "truncate" (ints [ ("recs", cut) ])
      end)

let wipe t =
  t.epoch <- t.epoch + 1;
  t.inflight <- false;
  t.barrier_open <- false;
  t.waiting <- [];
  t.n_wipes <- t.n_wipes + 1;
  (* The unsynced tail is gone. *)
  clear t ~from:(t.durable_upto - t.base) ~upto:(t.appended - t.base);
  let lost = t.appended - t.durable_upto in
  t.n_lost <- t.n_lost + lost;
  t.appended <- t.durable_upto;
  if recording t then
    recovery_ev t "wipe" (ints [ ("lost", lost); ("durable", t.durable_upto) ])

let recovery_span t =
  let n_records = t.durable_upto - t.base in
  let snap_part =
    match t.snap with None -> 0 | Some _ -> t.params.snapshot_latency
  in
  Time_ns.add t.params.sync_latency
    (Time_ns.add snap_part (t.params.replay_per_record * n_records))

let recover t =
  let n = t.durable_upto - t.base in
  let records = List.init n (fun i -> t.log.(i)) in
  t.n_replayed <- t.n_replayed + n;
  let span = recovery_span t in
  t.recovery_spans <- span :: t.recovery_spans;
  if recording t then begin
    let counts = ints [ ("records", n); ("span_us", span / Time_ns.us 1) ] in
    recovery_ev t "replay"
      (match t.snap with
      | None -> "snapshot=none " ^ counts
      | Some (_, upto) -> ints [ ("snapshot", upto) ] ^ " " ^ counts)
  end;
  (Option.map fst t.snap, records)

let counters t =
  [
    ("appends", t.n_appends);
    ("syncs", t.n_syncs);
    ("sync_writes", t.n_sync_writes);
    ("truncated", t.n_truncated);
    ("snapshots", t.n_snapshots);
    ("replayed", t.n_replayed);
    ("lost", t.n_lost);
    ("wipes", t.n_wipes);
  ]

let recovery_spans t = List.rev t.recovery_spans
