(* The journal's original [Printf] renderer, kept as a test-only
   oracle: [Journal.pp_event]'s hand-rolled writer must produce exactly
   these bytes for every event. *)

open Domino_obs.Journal

let opid_str (c, s) = Printf.sprintf "%d#%d" c s

let opt_opid_str = function None -> "-" | Some id -> opid_str id

let pp_event buf ev =
  let p fmt = Printf.ksprintf (Buffer.add_string buf) fmt in
  match ev with
  | Submit { op; node; key; at } ->
    p "@%d submit op=%s node=%d key=%d" at (opid_str op) node key
  | Commit { op; node; at } -> p "@%d commit op=%s node=%d" at (opid_str op) node
  | Execute { op; replica; at } ->
    p "@%d execute op=%s replica=%d" at (opid_str op) replica
  | Msg_sent { seq; src; dst; cls; op; at } ->
    p "@%d send seq=%d n%d>n%d cls=%s op=%s" at seq src dst cls
      (opt_opid_str op)
  | Msg_delivered { seq; src; dst; cls; op; sent_at; at } ->
    p "@%d deliver seq=%d n%d>n%d cls=%s op=%s sent=@%d" at seq src dst cls
      (opt_opid_str op) sent_at
  | Msg_dropped { seq; src; dst; cls; reason; at } ->
    p "@%d drop seq=%d n%d>n%d cls=%s reason=%s" at seq src dst cls reason
  | Timer_fired { at } -> p "@%d timer" at
  | Phase { node; op; name; dur; at } ->
    p "@%d phase node=%d op=%s name=%s dur=%d" at node (opt_opid_str op) name
      dur
  | Sample { name; value; at } -> p "@%d sample %s=%.6g" at name value
  | Mark { label; at } -> p "@%d mark %s" at label
  | Fault { name; detail; at } -> p "@%d fault.%s %s" at name detail
  | Store_ev { node; op; detail; at } ->
    p "@%d store.%s node=%d%s" at op node
      (if detail = "" then "" else " " ^ detail)
  | Store_sync { node; recs; upto; dur_us; at } ->
    p "@%d store.sync node=%d recs=%d upto=%d dur_us=%d" at node recs upto
      dur_us
  | Recovery { node; stage; detail; at } ->
    p "@%d recovery.%s node=%d%s" at stage node
      (if detail = "" then "" else " " ^ detail)
  | Migrate { stage; slot; from_g; to_g; epoch; detail; at } ->
    p "@%d migrate.%s slot=%d from=g%d to=g%d epoch=%d%s" at stage slot from_g
      to_g epoch
      (if detail = "" then "" else " " ^ detail)
  | Reconfig { stage; group; epoch; detail; at } ->
    p "@%d reconfig.%s group=%d epoch=%d%s" at stage group epoch
      (if detail = "" then "" else " " ^ detail)

let to_lines t =
  let buf = Buffer.create 4096 in
  iter t (fun ev ->
      pp_event buf ev;
      Buffer.add_char buf '\n');
  Buffer.contents buf
