open Domino_sim
open Domino_stats

type entry = {
  id : string;
  describe : string;
  aliases : string list;
  run : quick:bool -> seed:int64 -> Tablefmt.t list;
  smoke :
    (seed:int64 ->
    ?faults:Domino_fault.Plan.t ->
    ?timeline:Domino_obs.Timeline.agg ->
    ?journal:Domino_obs.Journal.t ->
    unit ->
    Domino_obs.Journal.t)
    option;
}

let sec_if quick a b = Time_ns.sec (if quick then a else b)

let all =
  [
    {
      id = "table1";
      describe = "Globe RTT matrix (input constants)";
      aliases = [];
      run = (fun ~quick:_ ~seed:_ -> [ Exp_traces.table1 () ]);
      smoke = None;
    };
    {
      id = "table4";
      describe = "NA RTT matrix (input constants)";
      aliases = [];
      run = (fun ~quick:_ ~seed:_ -> [ Exp_traces.table4 () ]);
      smoke = None;
    };
    {
      id = "fig1";
      describe = "delay stability from VA (synthetic Azure traces)";
      aliases = [];
      run =
        (fun ~quick ~seed ->
          [ Exp_traces.fig1 ~duration:(sec_if quick 300 3600) ~seed () ]);
      smoke = None;
    };
    {
      id = "fig2";
      describe = "one minute of VA-WA delays in 1s boxes";
      aliases = [];
      run = (fun ~quick:_ ~seed -> [ Exp_traces.fig2 ~seed () ]);
      smoke = None;
    };
    {
      id = "fig3";
      describe = "correct prediction rate vs percentile x window";
      aliases = [];
      run =
        (fun ~quick ~seed ->
          [ Exp_traces.fig3 ~duration:(sec_if quick 300 1800) ~seed () ]);
      smoke = None;
    };
    {
      id = "table2";
      describe = "p99 misprediction, half-RTT estimator";
      aliases = [];
      run =
        (fun ~quick ~seed ->
          [ Exp_traces.table2 ~duration:(sec_if quick 7200 86_400) ~seed () ]);
      smoke = None;
    };
    {
      id = "table3";
      describe = "p99 misprediction, Domino's OWD estimator";
      aliases = [];
      run =
        (fun ~quick ~seed ->
          [ Exp_traces.table3 ~duration:(sec_if quick 7200 86_400) ~seed () ]);
      smoke = None;
    };
    {
      id = "geometry";
      describe = "section 4 placement analysis + figure 4";
      aliases = [ "fig4" ];
      run = (fun ~quick:_ ~seed:_ -> Exp_geometry.tables ());
      smoke = None;
    };
    {
      id = "fig7";
      describe = "Fast Paxos vs Multi-Paxos, 1 and 2 clients";
      aliases = [];
      run = (fun ~quick ~seed -> [ Exp_fig7.run ~quick ~seed () ]);
      smoke = None;
    };
    {
      id = "fig8a";
      describe = "commit latency, NA, 3 replicas";
      aliases = [];
      run = (fun ~quick ~seed -> [ Exp_fig8.run ~quick ~seed Exp_fig8.Na3 () ]);
      smoke =
        Some
          (fun ~seed ?faults ?timeline ?journal () ->
            Exp_fig8.smoke_journal ~seed ?faults ?timeline ?journal
              Exp_fig8.Na3);
    };
    {
      id = "fig8b";
      describe = "commit latency, NA, 5 replicas";
      aliases = [];
      run = (fun ~quick ~seed -> [ Exp_fig8.run ~quick ~seed Exp_fig8.Na5 () ]);
      smoke =
        Some
          (fun ~seed ?faults ?timeline ?journal () ->
            Exp_fig8.smoke_journal ~seed ?faults ?timeline ?journal
              Exp_fig8.Na5);
    };
    {
      id = "fig8c";
      describe = "commit latency, Globe, 3 replicas";
      aliases = [];
      run =
        (fun ~quick ~seed -> [ Exp_fig8.run ~quick ~seed Exp_fig8.Globe () ]);
      smoke =
        Some
          (fun ~seed ?faults ?timeline ?journal () ->
            Exp_fig8.smoke_journal ~seed ?faults ?timeline ?journal
              Exp_fig8.Globe);
    };
    {
      id = "fig9";
      describe = "p99 commit latency vs percentile x additional delay";
      aliases = [];
      run = (fun ~quick ~seed -> [ Exp_fig9.run ~quick ~seed () ]);
      smoke = None;
    };
    {
      id = "fig10a";
      describe = "execution latency, Zipf alpha 0.75";
      aliases = [];
      run = (fun ~quick ~seed -> [ Exp_fig10.run ~quick ~seed ~alpha:0.75 () ]);
      smoke = None;
    };
    {
      id = "fig10b";
      describe = "execution latency, Zipf alpha 0.95";
      aliases = [];
      run = (fun ~quick ~seed -> [ Exp_fig10.run ~quick ~seed ~alpha:0.95 () ]);
      smoke = None;
    };
    {
      id = "fig11";
      describe = "execution latency vs additional delay";
      aliases = [];
      run = (fun ~quick ~seed -> [ Exp_fig11.run ~quick ~seed () ]);
      smoke = None;
    };
    {
      id = "fig12a";
      describe = "adapting to client-replica and replica-replica delay changes";
      aliases = [ "fig12b"; "fig12" ];
      run = (fun ~quick:_ ~seed -> Exp_fig12.table ~seed ());
      smoke = None;
    };
    {
      id = "ablation";
      describe =
        "Domino design-knob ablation (additional delay, feedback, learners, \
         percentile)";
      aliases = [];
      run = (fun ~quick ~seed -> [ Exp_ablation.run ~quick ~seed () ]);
      smoke = None;
    };
    {
      id = "storage";
      describe = "section 6 storage compression of the no-op log";
      aliases = [];
      run = (fun ~quick:_ ~seed:_ -> [ Exp_storage.run () ]);
      smoke = None;
    };
    {
      id = "fig13";
      describe = "peak throughput, 3 replicas, LAN cluster";
      aliases = [];
      run = (fun ~quick ~seed -> [ Exp_fig13.table ~quick ~seed () ]);
      smoke = None;
    };
    {
      id = "fsync";
      describe = "commit-latency cost of fsync-on-critical-path vs batched sync";
      aliases = [ "durability" ];
      run = (fun ~quick ~seed -> [ Exp_fsync.run ~quick ~seed () ]);
      smoke = None;
    };
    {
      id = "recovery";
      describe =
        "fault dip/recovery report: baseline RPS, dip depth, time-to-recover, \
         p99 spike per fault x protocol";
      aliases = [ "dips"; "timelines" ];
      run = (fun ~quick ~seed -> [ Exp_recovery.run ~quick ~seed () ]);
      smoke = Some Exp_recovery.smoke_journal;
    };
    {
      id = "patch";
      describe =
        "membership reconfig + rolling patch: leader crash vs graceful \
         transfer vs rolling wipe-upgrade, dip + TTR per protocol";
      aliases = [ "roll" ];
      run = (fun ~quick ~seed -> [ Exp_patch.run ~quick ~seed () ]);
      smoke = Some Exp_patch.smoke_journal;
    };
    {
      id = "shards";
      describe =
        "shard-serving fabric: N Domino groups behind a slot router, shard \
         count x client population";
      aliases = [ "fabric" ];
      run = (fun ~quick ~seed -> Exp_shards.run ~quick ~seed ());
      smoke = Some Exp_shards.smoke_journal;
    };
    {
      id = "rebalance";
      describe =
        "live slot migration under traffic: 2 Domino groups, hot range slot \
         moved mid-run (planned or hotspot-triggered), throughput dip + TTR";
      aliases = [ "migrate" ];
      run = (fun ~quick ~seed -> Exp_rebalance.run ~quick ~seed ());
      smoke = Some Exp_rebalance.smoke_journal;
    };
  ]

let find id =
  List.find_opt (fun e -> e.id = id || List.mem id e.aliases) all
