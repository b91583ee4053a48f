open Domino_sim
open Domino_obs

type outcome = {
  slot : int;
  from_g : int;
  to_g : int;
  epoch : int;
  records : int;
  queued : int;
  started_at : Time_ns.t;
  finished_at : Time_ns.t;
  aborted : bool;
}

type t = {
  engine : Engine.t;
  router : Router.t;
  journal : Journal.sink;
  spec : Slots.spec;
  kv_of_group : int -> Domino_kv.Store.t array;
  dstores_of_group : int -> Domino_store.Store.t array;
  install_span : records:int -> Time_ns.span;
  mutable active : bool;
  mutable next_allowed : Time_ns.t;
  mutable outcomes_r : outcome list;  (** newest first *)
}

(* After the drain, follower executions get [grace] to land group-wide
   before the source is snapshotted; after a successful cutover the
   slot rests for [cooldown] before the next request. *)
let grace = Time_ns.ms 200

let cooldown = Time_ns.ms 1500

let create engine ~router ~journal ~spec ~kv_of_group ~dstores_of_group
    ~install_span =
  {
    engine;
    router;
    journal;
    spec;
    kv_of_group;
    dstores_of_group;
    install_span;
    active = false;
    next_allowed = Time_ns.zero;
    outcomes_r = [];
  }

let outcomes t = List.rev t.outcomes_r

let recently_moved t ~slot =
  List.exists
    (fun o ->
      o.slot = slot
      && (not o.aborted)
      && Time_ns.diff (Engine.now t.engine) o.finished_at < cooldown)
    t.outcomes_r

let emit t ~stage ~slot ~from_g ~to_g ~epoch ~detail =
  if Journal.enabled t.journal then
    Journal.emit t.journal
      (Journal.Migrate
         {
           stage;
           slot;
           from_g;
           to_g;
           epoch;
           detail;
           at = Engine.now t.engine;
         })

let finish t outcome =
  t.active <- false;
  t.next_allowed <- Time_ns.add (Engine.now t.engine) cooldown;
  t.outcomes_r <- outcome :: t.outcomes_r

(* The WAL record every destination replica fsyncs before the slot's
   install span starts. Nothing replays it. *)
type Domino_store.Store.record +=
  | Handoff of { slot : int; from_g : int; to_g : int; records : int }

(* The migration state machine, each phase a journaled [migrate.*]
   event:

     freeze -> (drain poll) -> drain -> (grace) -> transfer
            -> (durable handoff + install span) -> epoch -> done

   or, if the drain deadline expires first ([Quiesce.drain]): freeze ->
   abort. Aborting unfreezes WITHOUT reassigning: a pre-freeze op still
   in flight at the source could commit after an epoch bump, and its
   write would then land invisibly behind the destination's snapshot —
   the lost-update hazard the deadline exists to dodge (a crashed
   source leader mid-migration hits exactly this path). *)
let start t ~slot ~from_g ~to_g =
  t.active <- true;
  let started_at = Engine.now t.engine in
  let epoch0 = Router.epoch t.router in
  emit t ~stage:"freeze" ~slot ~from_g ~to_g ~epoch:epoch0 ~detail:"";
  let cutover ~records () =
    (* Re-point the slot and journal the epoch bump in the same
       closure: nothing can interleave between the live router's map
       change and the event offline replay applies, so online and
       replayed attribution stay byte-identical. *)
    let epoch = Router.reassign t.router ~slot ~to_g in
    emit t ~stage:"epoch" ~slot ~from_g ~to_g ~epoch ~detail:"";
    let queued = Router.unfreeze t.router slot in
    emit t ~stage:"done" ~slot ~from_g ~to_g ~epoch
      ~detail:(Printf.sprintf "records=%d queued=%d" records queued);
    finish t
      {
        slot;
        from_g;
        to_g;
        epoch;
        records;
        queued;
        started_at;
        finished_at = Engine.now t.engine;
        aborted = false;
      }
  in
  let transfer () =
    let src = t.kv_of_group from_g in
    let keep key = Slots.slot_of_key t.spec key = slot in
    (* Source replica 0's state: the drain plus grace mean every
       routed op has committed and executed group-wide, so any
       replica's slice of the slot agrees. Keys are NOT deleted at the
       source — a stale follower replaying the tail must keep
       converging to the same fingerprint. *)
    let bindings = Domino_kv.Store.export src.(0) ~keep in
    let records = List.length bindings in
    emit t ~stage:"transfer" ~slot ~from_g ~to_g ~epoch:epoch0
      ~detail:(Printf.sprintf "records=%d" records);
    Array.iter
      (fun kv -> Domino_kv.Store.import kv bindings)
      (t.kv_of_group to_g);
    (* Durable handoff: every destination replica persists a handoff
       record (persist-then-act), and only when the last fsync lands
       does the modeled snapshot-install span start ticking. *)
    Domino_smr.Quiesce.persist
      (Array.to_list (t.dstores_of_group to_g))
      ~kind:"handoff"
      (Handoff { slot; from_g; to_g; records })
      (fun () ->
        Engine.schedule t.engine ~delay:(t.install_span ~records)
          (cutover ~records))
  in
  Domino_smr.Quiesce.drain t.engine
    ~freeze:(fun () -> Router.freeze t.router slot)
    ~inflight:(fun () -> Router.inflight_on t.router ~slot)
    ~unfreeze:(fun () -> Router.unfreeze t.router slot)
    ~drained:(fun () ->
      emit t ~stage:"drain" ~slot ~from_g ~to_g ~epoch:epoch0
        ~detail:
          (Printf.sprintf "waited_ms=%.0f"
             (Time_ns.to_ms_f (Time_ns.diff (Engine.now t.engine) started_at)));
      Engine.schedule t.engine ~delay:grace transfer)
    ~aborted:(fun ~left ~queued ->
      emit t ~stage:"abort" ~slot ~from_g ~to_g ~epoch:epoch0
        ~detail:(Printf.sprintf "left=%d queued=%d" left queued);
      finish t
        {
          slot;
          from_g;
          to_g;
          epoch = epoch0;
          records = 0;
          queued;
          started_at;
          finished_at = Engine.now t.engine;
          aborted = true;
        })

let request t ~slot ~to_g =
  let groups = Router.groups t.router in
  if
    t.active
    || Engine.now t.engine < t.next_allowed
    || slot < 0
    || slot >= Slots.slots t.spec
    || to_g < 0 || to_g >= groups
  then false
  else
    let from_g = Router.owner_of_slot t.router slot in
    if from_g = to_g then false
    else begin
      start t ~slot ~from_g ~to_g;
      true
    end
