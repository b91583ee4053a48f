open Domino_sim
open Domino_net

type t = {
  on_submit : Op.t -> now:Time_ns.t -> unit;
  on_commit : Op.t -> now:Time_ns.t -> unit;
  on_execute : replica:Nodeid.t -> Op.t -> now:Time_ns.t -> unit;
  on_phase :
    node:Nodeid.t ->
    op:Op.t option ->
    name:string ->
    dur:Time_ns.span ->
    now:Time_ns.t ->
    unit;
}

let null =
  {
    on_submit = (fun _ ~now:_ -> ());
    on_commit = (fun _ ~now:_ -> ());
    on_execute = (fun ~replica:_ _ ~now:_ -> ());
    on_phase = (fun ~node:_ ~op:_ ~name:_ ~dur:_ ~now:_ -> ());
  }

module Recorder = struct
  type observer = t

  (* One op's ledger entry. *)
  type entry = {
    mutable sent : Time_ns.t;  (** first submit; [unsent] until then *)
    mutable committed : bool;
    mutable executed : int;  (** bit [r]: replica [r] executed the op *)
  }

  let unsent = min_int

  type t = {
    ops : entry Op.Idtbl.t;
    commit_ms : Domino_stats.Summary.t;
    exec_ms : Domino_stats.Summary.t;
    mutable per_client : Domino_stats.Summary.t Nodeid.Map.t;
    mutable commits : (Op.id * Time_ns.t) list;
    mutable series : (Time_ns.t * float) list;  (** (submit time, latency ms) *)
    mutable measure_from : Time_ns.t;
    mutable measure_until : Time_ns.t;
    mutable submitted : int;
    mutable committed : int;
    mutable repeats : int;
  }

  let create () =
    {
      ops = Op.Idtbl.create 1;
      commit_ms = Domino_stats.Summary.create ();
      exec_ms = Domino_stats.Summary.create ();
      per_client = Nodeid.Map.empty;
      commits = [];
      series = [];
      measure_from = min_int;
      measure_until = max_int;
      submitted = 0;
      committed = 0;
      repeats = 0;
    }

  let entry t id =
    match Op.Idtbl.find_opt t.ops id with
    | Some e -> e
    | None ->
      let e = { sent = unsent; committed = false; executed = 0 } in
      Op.Idtbl.add t.ops id e;
      e

  let start_measuring t at = t.measure_from <- at

  let stop_measuring t at = t.measure_until <- at

  let in_window t sent = sent >= t.measure_from && sent <= t.measure_until

  let since e now =
    if e.sent = unsent then None
    else Some (Time_ns.to_ms_f (Time_ns.diff now e.sent))

  let client_summary t client =
    match Nodeid.Map.find_opt client t.per_client with
    | Some s -> s
    | None ->
      let s = Domino_stats.Summary.create () in
      t.per_client <- Nodeid.Map.add client s t.per_client;
      s

  let submit t op ~now =
    (* Keep the first submission: a client retry re-announces the same
       op id, and latency must be measured from the original send. *)
    let e = entry t (Op.id op) in
    e.sent = unsent
    && begin
         e.sent <- now;
         t.submitted <- t.submitted + 1;
         true
       end

  let note_submit t op ~now = ignore (submit t op ~now)

  let commit t (op : Op.t) ~now =
    let id = Op.id op in
    let e = entry t id in
    let lat = since e now in
    if not e.committed then begin
      e.committed <- true;
      t.committed <- t.committed + 1;
      match lat with
      | Some l when in_window t e.sent ->
        Domino_stats.Summary.add t.commit_ms l;
        Domino_stats.Summary.add (client_summary t op.client) l;
        t.commits <- (id, now) :: t.commits;
        t.series <- (e.sent, l) :: t.series
      | _ -> ()
    end;
    lat

  type execution = Repeat | Fresh | Sample of float

  let replica_bit r =
    if r < 0 || r >= Sys.int_size - 1 then
      invalid_arg "Observer.Recorder.execute: replica id outside the ledger";
    1 lsl r

  let execute t ~replica ?exec_at op ~now =
    let e = entry t (Op.id op) in
    let bit = replica_bit replica in
    let before = e.executed in
    if before land bit <> 0 then begin
      t.repeats <- t.repeats + 1;
      Repeat
    end
    else begin
      e.executed <- before lor bit;
      (* The sample comes from the first execution among the replicas
         it may come from: [exec_at] alone, or any of them. *)
      let from = match exec_at with Some r -> replica_bit r | None -> -1 in
      if bit land from = 0 || before land from <> 0 then Fresh
      else
        match since e now with
        | None -> Fresh
        | Some l ->
          if in_window t e.sent then Domino_stats.Summary.add t.exec_ms l;
          Sample l
    end

  let observer t ?exec_replica_for () =
    let exec_at =
      match exec_replica_for with Some f -> f | None -> fun _ -> None
    in
    {
      on_submit = (fun op ~now -> note_submit t op ~now);
      on_commit = (fun op ~now -> ignore (commit t op ~now));
      on_execute =
        (fun ~replica op ~now ->
          ignore (execute t ~replica ?exec_at:(exec_at op) op ~now));
      on_phase = (fun ~node:_ ~op:_ ~name:_ ~dur:_ ~now:_ -> ());
    }

  let commit_latency_ms t = t.commit_ms

  let exec_latency_ms t = t.exec_ms

  let commit_latency_of_client_ms t client = client_summary t client

  let committed t = t.committed

  let submitted t = t.submitted

  let repeats t = t.repeats

  let commit_times t = List.rev t.commits

  let latency_series t = List.rev t.series
end
