open Domino_sim
open Domino_obs

type change =
  | Add of int
  | Remove of int
  | Replace of { node : int; with_ : int }

(* The orchestrator drives everything through callbacks so the group's
   harness (the shard fabric) stays the only module that knows about
   the router, the network, and the protocol instance at once. *)
type hooks = {
  control : Protocol_intf.control -> k:(unit -> unit) -> bool;
      (** the group protocol's planned-operation entry point *)
  freeze : unit -> unit;  (** park all new submits routed to the group *)
  unfreeze : unit -> int;  (** release them; returns how many queued *)
  inflight : unit -> int;  (** submitted-but-uncommitted ops on the group *)
  crash_node : int -> unit;  (** take a removed replica off the network *)
  recover_node : int -> unit;  (** readmit an added replica *)
  wipe : int -> Time_ns.span;
      (** wipe-restart a replica; returns its modeled recovery span *)
}

type t = {
  engine : Engine.t;
  journal : Journal.sink;
  group : int;
  n : int;
  members : bool array;
  stores : Domino_store.Store.t array;
  hooks : hooks;
  mutable holder : int;
  mutable epoch : int;
  mutable active : bool;  (** a membership change is in progress *)
  mutable rolling : bool;  (** a rolling patch is in progress *)
}

let create engine ~journal ~group ~n ~leader ~stores ~hooks =
  if n <= 0 then invalid_arg "Reconfig.create: empty group";
  if Array.length stores <> n then
    invalid_arg "Reconfig.create: one store per replica required";
  if leader < 0 || leader >= n then invalid_arg "Reconfig.create: bad leader";
  {
    engine;
    journal;
    group;
    n;
    members = Array.make n true;
    stores;
    hooks;
    holder = leader;
    epoch = 0;
    active = false;
    rolling = false;
  }

let is_member t node = node >= 0 && node < t.n && t.members.(node)

let members t =
  let out = ref [] in
  for i = t.n - 1 downto 0 do
    if t.members.(i) then out := i :: !out
  done;
  !out

let emit t ~stage ~detail =
  if Journal.enabled t.journal then
    Journal.emit t.journal
      (Journal.Reconfig
         {
           stage;
           group = t.group;
           epoch = t.epoch;
           detail;
           at = Engine.now t.engine;
         })

(* --- leader transfer ---

   A graceful, non-crash handoff: no freeze, no epoch bump — the
   protocol itself drains whatever the handoff needs (Multi-Paxos
   parks requests while its open slots empty; Mencius and Domino
   re-steer routing and are done immediately). Duties move from the
   tracked coordination holder. Protocols with no coordination role
   there accept vacuously, so a transfer always completes and always
   journals its [reconfig.transfer] / [reconfig.transfer_done] pair
   (the dip analyzer's start/heal anchors). *)
let transfer t ~to_ ~k =
  let from_ = t.holder in
  if not (is_member t to_) || not (is_member t from_) then false
  else if from_ = to_ then begin
    k ();
    true
  end
  else begin
    let detail = Printf.sprintf "node=%d to=%d" from_ to_ in
    emit t ~stage:"transfer" ~detail;
    let fin () =
      if t.holder = from_ then t.holder <- to_;
      emit t ~stage:"transfer_done" ~detail;
      k ()
    in
    if not (t.hooks.control (Protocol_intf.Transfer { from_; to_ }) ~k:fin)
    then
      (* Leaderless protocol: nothing to hand off, vacuously complete. *)
      fin ();
    true
  end

let restore t ~node =
  if is_member t node then
    ignore (t.hooks.control (Protocol_intf.Restore { node }) ~k:(fun () -> ()))

(* Hand [node]'s coordination duties to the first other member, then
   continue with [k] — which takes [node] out of service. [k] runs at
   once when [node] holds no duties or no other member is left. *)
let hand_off t ~node ~k =
  if node <> t.holder then k ()
  else
    match List.find_opt (fun m -> m <> node) (members t) with
    | Some to_ -> if not (transfer t ~to_ ~k) then k ()
    | None -> k ()

(* --- membership change ---

   Stop-the-world epoch bump:

     begin -> freeze -> (drain poll) -> persist config on every member
           -> epoch -> apply (crash removed / readmit added) -> unfreeze
           -> done

   or, when the drain deadline expires first: begin -> abort (unfreeze
   without any change, epoch untouched). Persisting the new config on
   every post-change member's stable store *before* the epoch event is
   the externalization gate: a config the journal shows as active is
   one every member would recover with.

   Quorum arithmetic stays over the group's original size [n] — a
   removal narrows the fault budget rather than shrinking quorums, so
   the group must keep a live majority of the original membership. *)

let change_detail = function
  | Add node -> Printf.sprintf "node=%d add" node
  | Remove node -> Printf.sprintf "node=%d remove" node
  | Replace { node; with_ } ->
    Printf.sprintf "node=%d replace with=%d" node with_

(* The WAL record every member of a new configuration fsyncs before
   the epoch externalizes. Nothing replays it: a restarted member
   learns its configuration from the harness. *)
type Domino_store.Store.record +=
  | Config of { group : int; epoch : int; members : bool array }

let validate_change t change =
  match change with
  | Add node ->
    if node < 0 || node >= t.n then Error "add: node out of range"
    else if t.members.(node) then Error "add: node already a member"
    else Ok ()
  | Remove node ->
    if not (is_member t node) then Error "remove: node not a member"
    else if
      Array.fold_left (fun acc m -> if m then acc + 1 else acc) 0 t.members - 1
      < (t.n / 2) + 1
    then Error "remove: would drop below a majority of the original group"
    else Ok ()
  | Replace { node; with_ } ->
    if not (is_member t node) then Error "replace: node not a member"
    else if with_ < 0 || with_ >= t.n then Error "replace: with out of range"
    else if t.members.(with_) then Error "replace: with already a member"
    else Ok ()

let request t change ~k =
  if t.active then false
  else
    match validate_change t change with
    | Error _ -> false
    | Ok () ->
      t.active <- true;
      let detail = change_detail change in
      let finish () =
        t.active <- false;
        k ()
      in
      let apply_and_release () =
        (* Everything from the epoch bump to the unfreeze happens in one
           closure, so no op can route against a half-applied config. *)
        t.epoch <- t.epoch + 1;
        emit t ~stage:"epoch" ~detail;
        (match change with
        | Add node ->
          t.members.(node) <- true;
          t.hooks.recover_node node;
          restore t ~node
        | Remove node ->
          t.members.(node) <- false;
          t.hooks.crash_node node
        | Replace { node; with_ } ->
          t.members.(node) <- false;
          t.hooks.crash_node node;
          t.members.(with_) <- true;
          t.hooks.recover_node with_;
          restore t ~node:with_);
        let queued = t.hooks.unfreeze () in
        emit t ~stage:"done" ~detail:(Printf.sprintf "%s queued=%d" detail queued);
        finish ()
      in
      let persist () =
        (* Persist-then-act: every member of the NEW configuration
           fsyncs the config record before the epoch externalizes. *)
        let members_after = Array.copy t.members in
        (match change with
        | Add node -> members_after.(node) <- true
        | Remove node -> members_after.(node) <- false
        | Replace { node; with_ } ->
          members_after.(node) <- false;
          members_after.(with_) <- true);
        let record =
          Config
            { group = t.group; epoch = t.epoch + 1; members = members_after }
        in
        (* Prepending visits the members in descending index order: the
           fsync order the journal pins. *)
        let targets = ref [] in
        Array.iteri
          (fun i m -> if m then targets := t.stores.(i) :: !targets)
          members_after;
        Quiesce.persist !targets ~kind:"config" record apply_and_release
      in
      let begin_change () =
        emit t ~stage:"begin" ~detail;
        Quiesce.drain t.engine ~freeze:t.hooks.freeze
          ~inflight:t.hooks.inflight ~unfreeze:t.hooks.unfreeze
          ~drained:persist ~aborted:(fun ~left ~queued ->
            emit t ~stage:"abort"
              ~detail:(Printf.sprintf "%s left=%d queued=%d" detail left queued);
            finish ())
      in
      (* Removing the coordination holder: steer duties away first so
         the group is not leaderless the instant the node goes. *)
      (match change with
      | Remove node | Replace { node; _ } -> hand_off t ~node ~k:begin_change
      | Add _ -> begin_change ());
      true

(* --- rolling patch ---

   One full rolling wipe-upgrade of the group under load. Per node, in
   ascending id order over the membership at start:

     1. hand the node's coordination duties off, if it holds them
        (graceful — journals transfer/transfer_done);
     2. journal [reconfig.roll_node node=<n>] and wipe-restart the
        node: volatile state gone, stable store truncated to its
        durable frontier, snapshot + log replay on the way back;
     3. after the modeled recovery span, journal the node's
        [recovery.up] (the dip analyzer's heal anchor for the node's
        row), clear any steering against it, and dwell before the next
        node.

   The whole campaign is bracketed by [reconfig.roll] /
   [reconfig.roll_done] so the cluster-wide dip row spans it. Nodes
   that leave the membership mid-roll (a concurrent membership change)
   are skipped. *)
let roll t ~dwell ~k =
  if t.rolling then false
  else begin
    t.rolling <- true;
    let nodes = members t in
    emit t ~stage:"roll"
      ~detail:
        (Printf.sprintf "nodes=%s dwell_ms=%d"
           (String.concat "," (List.map string_of_int nodes))
           (dwell / Time_ns.ms 1));
    let rolled = ref 0 in
    let rec roll_next = function
      | [] ->
        emit t ~stage:"roll_done" ~detail:(Printf.sprintf "rolled=%d" !rolled);
        t.rolling <- false;
        k ()
      | node :: rest when not (is_member t node) -> roll_next rest
      | node :: rest ->
        hand_off t ~node ~k:(fun () ->
            emit t ~stage:"roll_node" ~detail:(Printf.sprintf "node=%d" node);
            let span = t.hooks.wipe node in
            Engine.schedule t.engine ~delay:span (fun () ->
                if Journal.enabled t.journal then
                  Journal.emit t.journal
                    (Journal.Recovery
                       {
                         node;
                         stage = "up";
                         detail =
                           Printf.sprintf "after_us=%d" (span / Time_ns.us 1);
                         at = Engine.now t.engine;
                       });
                restore t ~node;
                incr rolled;
                Engine.schedule t.engine ~delay:dwell (fun () ->
                    roll_next rest)))
    in
    roll_next nodes;
    true
  end
