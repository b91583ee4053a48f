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

let both a b =
  {
    on_submit =
      (fun op ~now ->
        a.on_submit op ~now;
        b.on_submit op ~now);
    on_commit =
      (fun op ~now ->
        a.on_commit op ~now;
        b.on_commit op ~now);
    on_execute =
      (fun ~replica op ~now ->
        a.on_execute ~replica op ~now;
        b.on_execute ~replica op ~now);
    on_phase =
      (fun ~node ~op ~name ~dur ~now ->
        a.on_phase ~node ~op ~name ~dur ~now;
        b.on_phase ~node ~op ~name ~dur ~now);
  }

module Recorder = struct
  type observer = t

  type t = {
    submit_times : Time_ns.t Op.Idtbl.t;
    committed_ids : unit Op.Idtbl.t;
    executed_ids : unit Op.Idtbl.t;
    commit_ms : Domino_stats.Summary.t;
    exec_ms : Domino_stats.Summary.t;
    mutable per_client : Domino_stats.Summary.t Nodeid.Map.t;
    mutable commits : (Op.id * Time_ns.t) list;
    mutable series : (Time_ns.t * float) list;  (** (submit time, latency ms) *)
    mutable measure_from : Time_ns.t;
    mutable measure_until : Time_ns.t;
    mutable submitted : int;
  }

  let create () =
    {
      submit_times = Op.Idtbl.create 1;
      committed_ids = Op.Idtbl.create 1;
      executed_ids = Op.Idtbl.create 1;
      commit_ms = Domino_stats.Summary.create ();
      exec_ms = Domino_stats.Summary.create ();
      per_client = Nodeid.Map.empty;
      commits = [];
      series = [];
      measure_from = min_int;
      measure_until = max_int;
      submitted = 0;
    }

  let note_submit t op ~now =
    (* Keep the first submission: a client retry re-announces the same
       op id, and latency must be measured from the original send. *)
    let id = Op.id op in
    if not (Op.Idtbl.mem t.submit_times id) then begin
      t.submitted <- t.submitted + 1;
      Op.Idtbl.add t.submit_times id now
    end

  let start_measuring t at = t.measure_from <- at

  let stop_measuring t at = t.measure_until <- at

  let in_window t sent = sent >= t.measure_from && sent <= t.measure_until

  let client_summary t client =
    match Nodeid.Map.find_opt client t.per_client with
    | Some s -> s
    | None ->
      let s = Domino_stats.Summary.create () in
      t.per_client <- Nodeid.Map.add client s t.per_client;
      s

  let observer t ?exec_replica_for () =
    let on_commit (op : Op.t) ~now =
      let id = Op.id op in
      if not (Op.Idtbl.mem t.committed_ids id) then begin
        Op.Idtbl.add t.committed_ids id ();
        match Op.Idtbl.find_opt t.submit_times id with
        | None -> ()
        | Some sent ->
          if in_window t sent then begin
            let lat = Time_ns.to_ms_f (Time_ns.diff now sent) in
            Domino_stats.Summary.add t.commit_ms lat;
            Domino_stats.Summary.add (client_summary t op.client) lat;
            t.commits <- (id, now) :: t.commits;
            t.series <- (sent, lat) :: t.series
          end
      end
    in
    let on_execute ~replica (op : Op.t) ~now =
      let id = Op.id op in
      let wanted =
        match exec_replica_for with
        | None -> true
        | Some f -> begin
          match f op with None -> true | Some r -> Nodeid.equal r replica
        end
      in
      if wanted && not (Op.Idtbl.mem t.executed_ids id) then begin
        Op.Idtbl.add t.executed_ids id ();
        match Op.Idtbl.find_opt t.submit_times id with
        | None -> ()
        | Some sent ->
          if in_window t sent then
            Domino_stats.Summary.add t.exec_ms
              (Time_ns.to_ms_f (Time_ns.diff now sent))
      end
    in
    {
      on_submit = (fun op ~now -> note_submit t op ~now);
      on_commit;
      on_execute;
      on_phase = (fun ~node:_ ~op:_ ~name:_ ~dur:_ ~now:_ -> ());
    }

  let commit_latency_ms t = t.commit_ms

  let exec_latency_ms t = t.exec_ms

  let commit_latency_of_client_ms t client = client_summary t client

  let committed t = Op.Idtbl.length t.committed_ids

  let submitted t = t.submitted

  let commit_times t = List.rev t.commits

  let latency_series t = List.rev t.series
end
