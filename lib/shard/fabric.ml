open Domino_sim
open Domino_net
open Domino_smr
open Domino_obs
open Domino_kv

type group_spec = {
  replica_dcs : string array;
  leader : int;
  protocol : Protocol_intf.protocol;
  params : Protocol_intf.params;
}

type config = {
  topo : Topology.t;
  client_dcs : string array;
  groups : group_spec array;
  slots : Slots.spec;
}

type group_result = {
  prefix : string;
  protocol_name : string;
  recorder : Observer.Recorder.t;
  fast_commits : int;
  slow_commits : int;
  extra : (string * int) list;
  store_fingerprints : int list;
  wall_events : int;
  sync_writes : int;
  recovery_ms : float list;
  routed : int;
}

type result = {
  metrics : Metrics.t;
  groups : group_result array;
  provenance : Provenance.breakdown list;
  client_commit_ms : (string * Domino_stats.Summary.t) array;
  hot_flags : int array;
  hot_checks : int;
  migrations : Migrate.outcome list;
}

(* One group's live state between construction and collection. *)
type live = {
  spec : group_spec;
  g_prefix : string;
  g_recorder : Observer.Recorder.t;
  kv_stores : Store.t array;
  dstores : Domino_store.Store.t array;
  retry : Retry.t option;
  committed_c : Metrics.counter;
  submit : Op.t -> unit;
  gauges : (string * (unit -> float)) list;
  delivered : unit -> int;
  sent : unit -> int;
  fast_slow : unit -> (int * int) option;
  extra : unit -> (string * int) list;
  control : Protocol_intf.control -> k:(unit -> unit) -> bool;
  wipe_node : int -> Time_ns.span;
  crash_node : int -> unit;
  recover_node : int -> unit;
}

(* One group's observer, built on its ledger (the group's
   [Observer.Recorder]): run-level counters, the commit/execution
   latency histograms, the journal's submit/commit/execute/phase
   events, the KV apply, and the router's and the retry loop's commit
   hooks. Counter names carry the group prefix, so each group of a
   fabric owns its own [run.*] instruments; the single-group prefix is
   empty and keeps the historical names.

   The ledger's replica set is the at-most-once execution filter:
   retries can drive the same op through consensus twice, so an op a
   replica already executed is dropped here, before the store,
   counters and journal see it. *)
let group_observer ~prefix metrics jsink ledger ~n_rep ~exec_at ~kv_stores
    ~retry ~note_commit =
  let counter n = Metrics.counter metrics (prefix ^ n) in
  let submitted_c = counter "run.submitted" in
  let retries_c = counter "run.retries" in
  let committed_c = counter "run.committed" in
  let executed_c = counter "run.executed" in
  let commit_h = Metrics.histogram metrics (prefix ^ "run.commit_latency_ms") in
  let exec_h = Metrics.histogram metrics (prefix ^ "run.exec_latency_ms") in
  let executed ~replica (op : Op.t) ~now =
    Metrics.inc executed_c;
    if Journal.enabled jsink then
      Journal.emit jsink (Journal.Execute { op = Op.id op; replica; at = now })
  in
  {
    Observer.on_submit =
      (fun op ~now ->
        if Observer.Recorder.submit ledger op ~now then begin
          Metrics.inc submitted_c;
          if Journal.enabled jsink then
            Journal.emit jsink
              (Journal.Submit
                 {
                   op = Op.id op;
                   node = op.Op.client;
                   key = op.Op.key;
                   at = now;
                 })
        end
        else
          (* A protocol-level re-submission of a timed-out request:
             latency stays anchored at the first submit, and the
             journal keeps a single Submit per op. *)
          Metrics.inc retries_c);
    on_commit =
      (fun op ~now ->
        (match retry with Some r -> Retry.on_commit r op | None -> ());
        let lat = Observer.Recorder.commit ledger op ~now in
        Metrics.inc committed_c;
        let id = Op.id op in
        (* Retire the op from the router's in-flight tracking — the
           drain gauge a live slot migration polls. The ref is filled
           in after the router exists. *)
        !note_commit id;
        (match lat with Some l -> Metrics.observe commit_h l | None -> ());
        if Journal.enabled jsink then
          Journal.emit jsink
            (Journal.Commit { op = id; node = op.Op.client; at = now }));
    on_execute =
      (fun ~replica op ~now ->
        if replica >= n_rep then executed ~replica op ~now
        else
          match
            Observer.Recorder.execute ledger ~replica
              ?exec_at:exec_at.(op.Op.client) op ~now
          with
          | Observer.Recorder.Repeat -> ()
          | Fresh ->
            Store.apply kv_stores.(replica) op;
            executed ~replica op ~now
          | Sample l ->
            Store.apply kv_stores.(replica) op;
            Metrics.observe exec_h l;
            executed ~replica op ~now);
    on_phase =
      (fun ~node ~op ~name ~dur ~now ->
        if Journal.detail jsink then
          Journal.emit jsink
            (Journal.Phase
               { node; op = Option.map Op.id op; name; dur; at = now }));
  }

let run ?(seed = 42L) ?(rate = 200.) ?(alpha = 0.75)
    ?(duration = Time_ns.sec 30) ?measure_from ?measure_until ?metrics
    ?journal ?timeline ?faults ?(auto_rebalance = false)
    ?(store = Domino_store.Store.default_params)
    (config : config) =
  let n_groups = Array.length config.groups in
  if n_groups = 0 then invalid_arg "Fabric.run: no groups";
  (* Orchestrated plan verbs (migrate / transfer / reconfig / roll) are
     scheduled by the fabric itself — they need the router, stores, and
     protocol control hooks — not by Inject; the full plan still flows
     to each group's injector, where those actions are no-ops. *)
  let orchestrated =
    match faults with
    | Some plan -> fst (Domino_fault.Plan.partition_control plan)
    | None -> []
  in
  let migrations, controls =
    List.partition
      (fun (ev : Domino_fault.Plan.event) ->
        match ev.action with Domino_fault.Plan.Migrate _ -> true | _ -> false)
      orchestrated
  in
  let migration_armed = migrations <> [] || auto_rebalance in
  if migration_armed && n_groups < 2 then
    invalid_arg "Fabric.run: slot migration needs a multi-group fabric";
  List.iter
    (fun (ev : Domino_fault.Plan.event) ->
      match ev.action with
      | Domino_fault.Plan.Migrate { slot; from_g; to_g } ->
        if slot >= Slots.slots config.slots then
          invalid_arg "Fabric.run: migrate slot out of range";
        if from_g >= n_groups || to_g >= n_groups then
          invalid_arg "Fabric.run: migrate group out of range"
      | _ -> ())
    migrations;
  let n_rep =
    let (g0 : group_spec) = config.groups.(0) in
    Array.length g0.replica_dcs
  in
  let check_group what g =
    if g < 0 || g >= n_groups then
      invalid_arg (Printf.sprintf "Fabric.run: %s group out of range" what)
  in
  let check_replica what r =
    if r < 0 || r >= n_rep then
      invalid_arg (Printf.sprintf "Fabric.run: %s replica out of range" what)
  in
  List.iter
    (fun (ev : Domino_fault.Plan.event) ->
      match ev.action with
      | Domino_fault.Plan.Transfer { group; to_ } ->
        check_group "transfer" group;
        check_replica "transfer" to_
      | Domino_fault.Plan.Reconfig { group; change } -> (
        check_group "reconfig" group;
        match change with
        | Domino_fault.Plan.Add n | Domino_fault.Plan.Remove n ->
          check_replica "reconfig" n
        | Domino_fault.Plan.Replace { node; with_ } ->
          check_replica "reconfig" node;
          check_replica "reconfig" with_)
      | Domino_fault.Plan.Roll { group; _ } -> check_group "roll" group
      | _ -> ())
    controls;
  Array.iter
    (fun g ->
      if Array.length g.replica_dcs <> n_rep then
        invalid_arg
          "Fabric.run: groups must host equal replica counts (client node \
           ids are shared across group networks)")
    config.groups;
  let n_cli = Array.length config.client_dcs in
  let measure_from =
    match measure_from with
    | Some v -> v
    | None -> Stdlib.min (Time_ns.sec 5) (duration / 4)
  in
  let measure_until =
    match measure_until with
    | Some v -> v
    | None -> duration - Stdlib.min (Time_ns.sec 2) (duration / 8)
  in
  let metrics = match metrics with Some m -> m | None -> Metrics.create () in
  let engine = Engine.create ~seed () in
  (* An online timeline is fed by the journal's tap, so it needs a
     journal even when the caller only wants the timeline: a one-slot
     throwaway ring. Such a ring records only the outline tier the
     timeline reads (unless a detail tap such as --trace-op's is on
     it), so the run builds no send, delivery, timer, phase or WAL
     append event. Journaling never changes simulated behavior, only
     what is recorded. *)
  let journal =
    match (journal, timeline) with
    | None, Some _ -> Some (Journal.create ~capacity:1 ())
    | j, _ -> j
  in
  let jsink =
    match journal with Some j -> Journal.sink j | None -> Journal.null
  in
  let flight =
    match journal with
    | Some j -> Some (Recorder.attach ?timeline j engine)
    | None -> None
  in
  (* Group composition header, multi-group only: single-group journals
     stay byte-identical to the flat (pre-fabric) layout. *)
  if n_groups > 1 && Journal.enabled jsink then
    Array.iteri
      (fun k (g : group_spec) ->
        let (module P : Protocol_intf.S) = g.protocol in
        Journal.emit jsink
          (Journal.Mark
             {
               label =
                 Printf.sprintf "g%d proto=%s replicas=%s leader=%d" k P.name
                   (String.concat "," (Array.to_list g.replica_dcs))
                   g.leader;
               at = Time_ns.zero;
             }))
      config.groups;
  (* Slot-map metadata, also multi-group only: offline timeline replay
     (Slots.resolver_of_mark) re-derives key->group attribution from
     this mark, matching the live router's map below. When live
     migration is armed the mark carries the starting epoch and
     explicit assignment, so replay can apply the journaled
     [migrate.epoch] bumps on top; without migrations the short form
     keeps pre-existing multi-group journals byte-identical. *)
  let assignment =
    Slots.assign ~slots:(Slots.slots config.slots) ~groups:n_groups
  in
  if n_groups > 1 && Journal.enabled jsink then
    Journal.emit jsink
      (Journal.Mark
         {
           label =
             (if migration_armed then
                Slots.mark_with_epochs config.slots ~groups:n_groups
                  ~assignment
              else Slots.mark config.slots ~groups:n_groups);
           at = Time_ns.zero;
         });
  let cluster =
    {
      Protocol_intf.Cluster.engine;
      topo = config.topo;
      metrics;
      journal = jsink;
    }
  in
  let note_commit : (Op.id -> unit) ref = ref (fun _ -> ()) in
  let make_group k (spec : group_spec) : live =
    let prefix = if n_groups = 1 then "" else Printf.sprintf "g%d." k in
    (* Node layout within this group's network: replicas first, then
       clients — every group numbers the shared physical clients
       identically because replica counts are equal. *)
    let placement = Array.append spec.replica_dcs config.client_dcs in
    let replicas = Array.init n_rep Fun.id in
    let recorder = Observer.Recorder.create () in
    Observer.Recorder.start_measuring recorder measure_from;
    Observer.Recorder.stop_measuring recorder measure_until;
    let kv_stores = Array.init n_rep (fun _ -> Store.create ()) in
    (* The simulated stable stores ([Domino_store]) are distinct from
       the KV service stores above: one per replica, on the shared
       engine so fsync barriers cost simulated time, journaling into
       the same sink. *)
    let dstores =
      Array.init n_rep (fun i ->
          Domino_store.Store.create engine ~node:replicas.(i) ~params:store
            ~journal:jsink)
    in
    (* Each node's closest replica, resolved once: it coordinates the
       node's requests, and the execution-latency sample comes from
       there. *)
    let closest =
      Placement.closest_replicas config.topo ~replica_dcs:spec.replica_dcs
        ~client_dcs:placement
    in
    let exec_at = Array.map Option.some closest in
    (* Per-group retry/failover sits between the router and the
       protocol: one [Retry] loop, two resend rules. A protocol whose
       params arm the in-protocol retry (Domino under faults) runs it
       in its clients with its own resend rule; every other group gets
       the generic resend through [P.submit] here. Only armed under
       fault injection: fault-free runs measure the protocols' native
       latency undisturbed. *)
    let retry =
      match faults with
      | Some _ when spec.params.Protocol_intf.retry_timeout = 0 ->
        Some (Retry.create engine)
      | _ -> None
    in
    let observer =
      group_observer ~prefix metrics jsink recorder ~n_rep ~exec_at ~kv_stores
        ~retry ~note_commit
    in
    let coordinator_of client = replicas.(closest.(client)) in
    let delivered = ref (fun () -> 0) in
    let sent = ref (fun () -> 0) in
    let wipe_node = ref (fun (_ : int) : Time_ns.span -> 0) in
    let crash_node = ref (fun (_ : int) -> ()) in
    let recover_node = ref (fun (_ : int) -> ()) in
    let env =
      {
        Protocol_intf.Group.cluster;
        prefix;
        make_net =
          (fun () ->
            let net =
              Topology.make_net engine config.topo ~placement ()
            in
            (match faults with
            | Some plan ->
              Domino_fault.Inject.install plan ~net ~journal:jsink
            | None -> ());
            delivered := (fun () -> Fifo_net.messages_delivered net);
            sent := (fun () -> Fifo_net.messages_sent net);
            (wipe_node := fun node -> Fifo_net.wipe_restart net node);
            (crash_node := fun node -> Fifo_net.crash net node);
            (recover_node := fun node -> Fifo_net.recover net node);
            net);
        replicas;
        leader = replicas.(spec.leader);
        coordinator_of;
        observer;
        stores = dstores;
        params = spec.params;
      }
    in
    let (module P : Protocol_intf.S) = spec.protocol in
    let p = P.create env in
    (match retry with
    | Some r -> Retry.set_resend r (fun op ~attempt:_ -> P.submit p op)
    | None -> ());
    let submit =
      match retry with Some r -> Retry.submit r | None -> P.submit p
    in
    {
      spec;
      g_prefix = prefix;
      g_recorder = recorder;
      kv_stores;
      dstores;
      retry;
      committed_c = Metrics.counter metrics (prefix ^ "run.committed");
      submit;
      gauges = P.gauges p;
      delivered = (fun () -> !delivered ());
      sent = (fun () -> !sent ());
      fast_slow = (fun () -> P.fast_slow_counts p);
      extra = (fun () -> P.extra_stats p);
      control = (fun c ~k -> P.control p c ~k);
      wipe_node = (fun node -> !wipe_node node);
      crash_node = (fun node -> !crash_node node);
      recover_node = (fun node -> !recover_node node);
    }
  in
  let lives = Array.mapi make_group config.groups in
  (match flight with
  | None -> ()
  | Some r ->
    (* Probe registration order fixes the [Sample] stream order:
       engine-wide gauges first, then each group's in registration
       order. *)
    Recorder.add_probe r "engine.pending" (fun () ->
        float_of_int (Engine.pending engine));
    Array.iter
      (fun live ->
        let prefix = live.g_prefix in
        let submitted_c =
          Metrics.counter metrics (prefix ^ "run.submitted")
        in
        Recorder.add_probe r (prefix ^ "run.inflight_ops") (fun () ->
            float_of_int
              (Metrics.counter_value submitted_c
              - Metrics.counter_value live.committed_c));
        Recorder.add_probe r (prefix ^ "net.inflight_msgs") (fun () ->
            float_of_int (live.sent () - live.delivered ()));
        List.iter
          (fun (n, probe) ->
            Recorder.add_probe r (prefix ^ "proto." ^ n) probe)
          live.gauges)
      lives);
  (* The shard router: each group's (retry-wrapped) submit behind the
     slot map. With one group it degenerates to that group's submit. *)
  let router =
    Router.create ~spec:config.slots ~assignment
      ~submits:(Array.map (fun live -> live.submit) lives)
  in
  (note_commit := fun id -> Router.note_commit router id);
  (* The online timeline reads the live router's (versioned) map, so
     per-group attribution matches offline replay of the slots mark
     above — including across mid-run epoch bumps, because the router
     is reassigned in the same closure that journals [migrate.epoch].
     The map's own [migrate] hook is therefore a no-op here; only
     offline replay uses it. *)
  (match timeline with
  | Some agg when n_groups > 1 ->
    Timeline.set_group_map agg
      {
        Timeline.groups = n_groups;
        lookup = (fun key -> Router.group_of router key);
        migrate = (fun ~slot:_ ~to_g:_ -> ());
      }
  | _ -> ());
  (* The migration orchestrator, armed only when the plan schedules a
     migration or auto-rebalance is on: fault-free and plain sharded
     runs keep their exact event streams. *)
  let migrate =
    if migration_armed then
      Some
        (Migrate.create engine ~router ~journal:jsink ~spec:config.slots
           ~kv_of_group:(fun g -> lives.(g).kv_stores)
           ~dstores_of_group:(fun g -> lives.(g).dstores)
           ~install_span:(fun ~records ->
             store.Domino_store.Store.snapshot_latency
             + (records * store.Domino_store.Store.replay_per_record)))
    else None
  in
  List.iter
    (fun (ev : Domino_fault.Plan.event) ->
      match ev.action with
      | Domino_fault.Plan.Migrate { slot; from_g; to_g } ->
        Engine.schedule_at engine ~at:ev.at (fun () ->
            match migrate with
            | Some m when Router.owner_of_slot router slot = from_g ->
              ignore (Migrate.request m ~slot ~to_g)
            | _ -> ())
      | _ -> ())
    migrations;
  (* Membership reconfiguration / leader transfer / rolling patch,
     armed only when the plan schedules one of the control verbs: every
     other run keeps its exact event stream. One [Smr.Reconfig]
     controller per group owns that group's epoch, membership bitmap,
     and tracked coordination holder, and drives its rolling patches. *)
  let reconfigs =
    if controls = [] then [||]
    else
      Array.mapi
        (fun k live ->
          let frozen_slots = ref [] in
          Domino_smr.Reconfig.create engine ~journal:jsink ~group:k ~n:n_rep
            ~leader:config.groups.(k).leader ~stores:live.dstores
            ~hooks:
              {
                Domino_smr.Reconfig.control = live.control;
                freeze =
                  (fun () -> frozen_slots := Router.freeze_group router k);
                unfreeze =
                  (fun () ->
                    let released =
                      List.fold_left
                        (fun acc s -> acc + Router.unfreeze router s)
                        0 !frozen_slots
                    in
                    frozen_slots := [];
                    released);
                inflight = (fun () -> Router.inflight_on_group router ~group:k);
                crash_node = live.crash_node;
                recover_node = live.recover_node;
                wipe = live.wipe_node;
              })
        lives
  in
  List.iter
    (fun (ev : Domino_fault.Plan.event) ->
      match ev.action with
      | Domino_fault.Plan.Transfer { group; to_ } ->
        Engine.schedule_at engine ~at:ev.at (fun () ->
            ignore
              (Domino_smr.Reconfig.transfer reconfigs.(group) ~to_
                 ~k:(fun () -> ())))
      | Domino_fault.Plan.Reconfig { group; change } ->
        let change =
          match change with
          | Domino_fault.Plan.Add n -> Domino_smr.Reconfig.Add n
          | Domino_fault.Plan.Remove n -> Domino_smr.Reconfig.Remove n
          | Domino_fault.Plan.Replace { node; with_ } ->
            Domino_smr.Reconfig.Replace { node; with_ }
        in
        Engine.schedule_at engine ~at:ev.at (fun () ->
            ignore
              (Domino_smr.Reconfig.request reconfigs.(group) change
                 ~k:(fun () -> ())))
      | Domino_fault.Plan.Roll { group; dwell } ->
        Engine.schedule_at engine ~at:ev.at (fun () ->
            ignore
              (Domino_smr.Reconfig.roll reconfigs.(group) ~dwell
                 ~k:(fun () -> ())))
      | _ -> ())
    controls;
  (* Hot-shard detection, multi-group only: a single group can't be
     hot relative to its peers, and the extra sampling timer would
     perturb single-group byte-identity with the flat harness. The
     detector rides a 500 ms Timeline.Clock — scheduled here, where its
     private timer used to be, so journal bytes are unchanged. *)
  let on_hot =
    (* Auto-rebalance closes the detect->act loop: a hot group's most
       routed slot moves to the group with the fewest routed ops.
       [Migrate.request] itself serializes (one migration at a time,
       then a cooldown), so a persistently hot shard triggers at most
       one move per window. *)
    match migrate with
    | Some m when auto_rebalance ->
      Some
        (fun ~g ->
          let slot = Router.hottest_slot router ~group:g in
          (* A slot that just migrated is skipped for a cooldown: its
             routed count still reflects the pre-move skew, and moving
             it straight back is the ping-pong the hysteresis exists to
             damp. *)
          if slot >= 0 && not (Migrate.recently_moved m ~slot) then begin
            let routed = Router.routed router in
            let dest = ref (-1) and lo = ref max_int in
            Array.iteri
              (fun k n ->
                if k <> g && n < !lo then begin
                  lo := n;
                  dest := k
                end)
              routed;
            if !dest >= 0 then ignore (Migrate.request m ~slot ~to_g:!dest)
          end)
    | _ -> None
  in
  (* The detector flags a group when its window delta exceeds
     [factor x mean]. With 2 groups a share can never exceed 2x the
     even split (that would be more than the total), so the default
     factor 2 is inert there. The rebalance experiment's Zipf head on
     slot 0 puts ~75% of traffic on g0 (~1.5x the even split), so
     auto-rebalance runs use 1.3, which fires on that skew while leaving
     a balanced fabric alone; every other run keeps the default. *)
  let hot_factor = if auto_rebalance then Some 1.3 else None in
  let hotspot =
    if n_groups > 1 then
      Some
        (Hotspot.create
           (Timeline.Clock.create engine ~window:(Time_ns.ms 500))
           ~groups:n_groups ?factor:hot_factor ?on_hot
           ~loads:(fun () ->
             Array.map
               (fun live ->
                 float_of_int (Metrics.counter_value live.committed_c))
               lives)
           ~journal:jsink ())
    else None
  in
  (match (flight, hotspot) with
  | Some r, Some h -> Recorder.add_probe r "fabric.hottest" (Hotspot.probe h)
  | _ -> ());
  let drain = Time_ns.sec 3 in
  let clients = List.init n_cli (fun i -> n_rep + i) in
  let _workload =
    Workload.create ~alpha ~rate ~clients ~duration
      ~submit:(Router.submit router) engine
  in
  Engine.run ~until:(duration + drain) engine;
  let routed = Router.routed router in
  let group_results =
    Array.mapi
      (fun k live ->
        let prefix = live.g_prefix in
        let counter n = Metrics.counter metrics (prefix ^ n) in
        let fast_commits, slow_commits =
          match live.fast_slow () with Some (f, s) -> (f, s) | None -> (0, 0)
        in
        Metrics.add (counter "run.fast_commits") fast_commits;
        Metrics.add (counter "run.slow_commits") slow_commits;
        let wall_events = live.delivered () in
        Metrics.set
          (Metrics.gauge metrics (prefix ^ "net.messages_delivered"))
          (float_of_int wall_events);
        let store_counter key =
          Array.fold_left
            (fun acc st ->
              acc
              + (match
                   List.assoc_opt key (Domino_store.Store.counters st)
                 with
                | Some v -> v
                | None -> 0))
            0 live.dstores
        in
        let sync_writes = store_counter "sync_writes" in
        Metrics.add (counter "store.sync_writes") sync_writes;
        Metrics.add (counter "store.syncs") (store_counter "syncs");
        Metrics.add (counter "store.wipes") (store_counter "wipes");
        let recovery_ms =
          Array.fold_left
            (fun acc st ->
              acc
              @ List.map Time_ns.to_ms_f
                  (Domino_store.Store.recovery_spans st))
            [] live.dstores
        in
        let recovery_h =
          Metrics.histogram metrics (prefix ^ "store.recovery_ms")
        in
        List.iter (Metrics.observe recovery_h) recovery_ms;
        let (module P : Protocol_intf.S) = live.spec.protocol in
        {
          prefix;
          protocol_name = P.name;
          recorder = live.g_recorder;
          fast_commits;
          slow_commits;
          extra =
            (live.extra ()
            @ (match live.retry with
              | Some r ->
                [
                  ("harness_retries", Retry.retries r);
                  ("harness_abandoned", Retry.abandoned r);
                ]
              | None -> [])
            @
            let dups = Observer.Recorder.repeats live.g_recorder in
            if dups > 0 then [ ("dedup_suppressed", dups) ] else []);
          store_fingerprints =
            Array.to_list (Array.map Store.fingerprint live.kv_stores);
          wall_events;
          sync_writes;
          recovery_ms;
          routed = routed.(k);
        })
      lives
  in
  Metrics.set
    (Metrics.gauge metrics "sim.events")
    (float_of_int (Engine.events_executed engine));
  let provenance =
    match journal with
    | None -> []
    | Some j ->
      let bs = Provenance.analyze j in
      Provenance.record metrics bs;
      bs
  in
  (* Per-client commit latency, merged across the groups that client's
     keys routed to: the bottleneck-node surface of the shards
     experiment. Physical client [i] is node [n_rep + i] in every
     group's network. *)
  let client_commit_ms =
    Array.init n_cli (fun i ->
        let node = n_rep + i in
        let merged =
          Array.fold_left
            (fun acc live ->
              Domino_stats.Summary.merge acc
                (Observer.Recorder.commit_latency_of_client_ms live.g_recorder
                   node))
            (Domino_stats.Summary.create ())
            lives
        in
        (config.client_dcs.(i), merged))
  in
  {
    metrics;
    groups = group_results;
    provenance;
    client_commit_ms;
    hot_flags =
      (match hotspot with
      | Some h -> Hotspot.flags h
      | None -> Array.make n_groups 0);
    hot_checks = (match hotspot with Some h -> Hotspot.checks h | None -> 0);
    migrations =
      (match migrate with Some m -> Migrate.outcomes m | None -> []);
  }
