open Domino_sim

let poll = Time_ns.ms 10

let deadline = Time_ns.ms 1500

let await engine ~inflight k =
  let deadline = Time_ns.add (Engine.now engine) deadline in
  let rec check () =
    let left = inflight () in
    if left = 0 || Engine.now engine >= deadline then k ~left
    else Engine.schedule engine ~delay:poll check
  in
  check ()

let drain engine ~freeze ~inflight ~unfreeze ~drained ~aborted =
  freeze ();
  await engine ~inflight (fun ~left ->
      if left = 0 then drained ()
      else
        let queued = unfreeze () in
        aborted ~left ~queued)

let persist stores ~kind record k =
  let waiting = ref (List.length stores) in
  List.iter
    (fun st ->
      Domino_store.Store.append_sync st ~kind record (fun () ->
          decr waiting;
          if !waiting = 0 then k ()))
    stores
