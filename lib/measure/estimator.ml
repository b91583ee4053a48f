open Domino_sim

type peer = {
  rtt_window : Window.t;
  offset_window : Window.t;
  mutable last_reply : Time_ns.t option;  (** local time of last reply *)
  mutable peer_replication_latency : Time_ns.span option;  (** piggybacked L_r *)
}

type t = {
  peers : peer array;
  mutable percentile : float;
  self : int option;
  (* Reusable sort buffer for the per-choice latency scans: these run
     for every client submission and every answered probe, so they must
     not build a fresh list pipeline each time. *)
  scratch : int array;
}

type choice = Dfp | Dm of int

(* The paper's settings: estimates over the last second of probes, and
   a replica silent for a second counts as infinitely far (§5.8). *)
let window = Time_ns.sec 1
let probe_timeout = Time_ns.sec 1

let create ?(percentile = 95.) ?self ~n_replicas () =
  if n_replicas <= 0 then invalid_arg "Estimator.create: n_replicas";
  let mk _ =
    {
      rtt_window = Window.create ~window;
      offset_window = Window.create ~window;
      last_reply = None;
      peer_replication_latency = None;
    }
  in
  {
    peers = Array.init n_replicas mk;
    percentile;
    self;
    scratch = Array.make n_replicas 0;
  }

let n_replicas t = Array.length t.peers

let set_percentile t p = t.percentile <- p

let record_reply t ~replica ~now_local (reply : Probe.reply) =
  let peer = t.peers.(replica) in
  let rtt = Time_ns.diff now_local reply.sent_local in
  let offset = Time_ns.diff reply.replica_local reply.sent_local in
  Window.add peer.rtt_window ~now:now_local (Stdlib.max 0 rtt);
  Window.add peer.offset_window ~now:now_local offset;
  peer.last_reply <- Some now_local;
  if reply.replication_latency <> max_int then
    peer.peer_replication_latency <- Some reply.replication_latency

let is_self t replica =
  match t.self with Some s -> s = replica | None -> false

let fresh peer ~now_local =
  match peer.last_reply with
  | None -> false
  | Some at -> Time_ns.diff now_local at <= probe_timeout

let rtt t ~replica ~now_local =
  if is_self t replica then Some 0
  else begin
    let peer = t.peers.(replica) in
    if not (fresh peer ~now_local) then None
    else Window.percentile peer.rtt_window ~now:now_local t.percentile
  end

let arrival_offset t ~replica ~now_local =
  if is_self t replica then Some 0
  else begin
    let peer = t.peers.(replica) in
    if not (fresh peer ~now_local) then None
    else Window.percentile peer.offset_window ~now:now_local t.percentile
  end

let predict_arrival t ~replica ~now_local =
  match arrival_offset t ~replica ~now_local with
  | None -> None
  | Some off -> Some (Time_ns.add now_local off)

(* Insert [v] into the ascending prefix [buf.(0 .. k-1)]. *)
let insort buf k v =
  let i = ref k in
  while !i > 0 && buf.(!i - 1) > v do
    buf.(!i) <- buf.(!i - 1);
    decr i
  done;
  buf.(!i) <- v

let request_timestamp t ~now_local ~q ~extra =
  let n = n_replicas t in
  let buf = t.scratch in
  let k = ref 0 in
  for replica = 0 to n - 1 do
    match predict_arrival t ~replica ~now_local with
    | None -> ()
    | Some arrival ->
      insort buf !k arrival;
      incr k
  done;
  if !k < q then None else Some (Time_ns.add buf.(q - 1) extra)

(* Live per-replica RTT estimates, sorted ascending into [t.scratch];
   returns how many there are. *)
let fill_rtts t ~now_local =
  let n = n_replicas t in
  let buf = t.scratch in
  let k = ref 0 in
  for replica = 0 to n - 1 do
    match rtt t ~replica ~now_local with
    | None -> ()
    | Some e ->
      insort buf !k e;
      incr k
  done;
  !k

let replication_latency t ~m ~now_local =
  let k = fill_rtts t ~now_local in
  if k < m then None else Some t.scratch.(m - 1)

let lat_dfp t ~q ~now_local =
  let k = fill_rtts t ~now_local in
  if k < q then None else Some t.scratch.(q - 1)

let lat_dm t ~now_local =
  let n = n_replicas t in
  let best = ref None in
  for replica = 0 to n - 1 do
    match rtt t ~replica ~now_local with
    | None -> ()
    | Some e_r -> (
      match t.peers.(replica).peer_replication_latency with
      | None -> ()
      | Some l_r ->
        let c = e_r + l_r in
        (match !best with
        | Some (b, _) when c >= b -> ()
        | _ -> best := Some (c, replica)))
  done;
  !best

let closest_live t ~now_local =
  let n = n_replicas t in
  let best = ref None in
  for replica = 0 to n - 1 do
    match rtt t ~replica ~now_local with
    | None -> ()
    | Some e -> (
      match !best with
      | Some (b, _) when e >= b -> ()
      | _ -> best := Some (e, replica))
  done;
  !best

let choose t ~q ~now_local =
  match (lat_dfp t ~q ~now_local, lat_dm t ~now_local) with
  | Some dfp, Some (dm, leader) -> if dfp < dm then Dfp else Dm leader
  | Some _, None -> Dfp
  | None, Some (_, leader) -> Dm leader
  | None, None -> begin
    match closest_live t ~now_local with
    | Some (_, leader) -> Dm leader
    | None -> Dfp
  end

let pp_choice fmt = function
  | Dfp -> Format.pp_print_string fmt "DFP"
  | Dm r -> Format.fprintf fmt "DM(leader=n%d)" r
