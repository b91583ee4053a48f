open Domino_smr

type t = {
  spec : Slots.spec;
  assignment : int array;  (** mutable contents: reassign re-points slots *)
  submits : (Op.t -> unit) array;
  routed : int array;
  slot_routed : int array;
  frozen : (int, Op.t Queue.t) Hashtbl.t;
  pending : (Op.id, int) Hashtbl.t;  (** in-flight op -> slot *)
  mutable epoch : int;
}

let create ~spec ~assignment ~submits =
  Slots.validate spec;
  let groups = Array.length submits in
  if groups = 0 then invalid_arg "Router.create: no groups";
  if Array.length assignment <> Slots.slots spec then
    invalid_arg "Router.create: assignment size <> slot count";
  ignore (Slots.spread assignment ~groups);
  {
    spec;
    assignment = Array.copy assignment;
    submits;
    routed = Array.make groups 0;
    slot_routed = Array.make (Slots.slots spec) 0;
    frozen = Hashtbl.create 4;
    pending = Hashtbl.create 1024;
    epoch = 0;
  }

let slot_of t key = Slots.slot_of_key t.spec key

let group_of t key = t.assignment.(slot_of t key)

let owner_of_slot t slot = t.assignment.(slot)

let epoch t = t.epoch

let submit t (op : Op.t) =
  let s = slot_of t op.Op.key in
  match Hashtbl.find_opt t.frozen s with
  | Some q -> Queue.add op q
  | None ->
    let g = t.assignment.(s) in
    t.routed.(g) <- t.routed.(g) + 1;
    t.slot_routed.(s) <- t.slot_routed.(s) + 1;
    if not (Hashtbl.mem t.pending (Op.id op)) then
      Hashtbl.replace t.pending (Op.id op) s;
    t.submits.(g) op

let note_commit t id = Hashtbl.remove t.pending id

let inflight_on t ~slot =
  Hashtbl.fold (fun _ s acc -> if s = slot then acc + 1 else acc) t.pending 0

let freeze t slot =
  if slot < 0 || slot >= Array.length t.assignment then
    invalid_arg "Router.freeze: slot out of range";
  if not (Hashtbl.mem t.frozen slot) then
    Hashtbl.replace t.frozen slot (Queue.create ())

let frozen t slot = Hashtbl.mem t.frozen slot

let reassign t ~slot ~to_g =
  if slot < 0 || slot >= Array.length t.assignment then
    invalid_arg "Router.reassign: slot out of range";
  if to_g < 0 || to_g >= Array.length t.submits then
    invalid_arg "Router.reassign: group out of range";
  t.assignment.(slot) <- to_g;
  t.epoch <- t.epoch + 1;
  t.epoch

let unfreeze t slot =
  match Hashtbl.find_opt t.frozen slot with
  | None -> 0
  | Some q ->
    Hashtbl.remove t.frozen slot;
    let n = Queue.length q in
    (* FIFO flush through the normal submit path: the slot is unfrozen,
       so queued ops route to the (possibly new) owner in order. *)
    Queue.iter (fun op -> submit t op) q;
    n

let freeze_group t g =
  if g < 0 || g >= Array.length t.submits then
    invalid_arg "Router.freeze_group: group out of range";
  (* Freeze only the slots this call actually parks, so a reconfig
     freeze composes with (and releases independently of) a concurrent
     per-slot migration freeze. *)
  let mine = ref [] in
  Array.iteri
    (fun s owner ->
      if owner = g && not (Hashtbl.mem t.frozen s) then begin
        freeze t s;
        mine := s :: !mine
      end)
    t.assignment;
  List.rev !mine

let inflight_on_group t ~group =
  Hashtbl.fold
    (fun _ s acc -> if t.assignment.(s) = group then acc + 1 else acc)
    t.pending 0

let hottest_slot t ~group =
  let best = ref (-1) and hi = ref (-1) in
  Array.iteri
    (fun s n ->
      if t.assignment.(s) = group && n > !hi then begin
        hi := n;
        best := s
      end)
    t.slot_routed;
  !best

let routed t = Array.copy t.routed

let groups t = Array.length t.submits
