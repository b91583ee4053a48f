(** Figure 13: peak throughput with 3 replicas in a LAN cluster.

    Paper (12-core machines, 1 Gbps): Domino ~65K req/s, EPaxos ~57K,
    Mencius ~56K, Multi-Paxos ~36K. Multi-Paxos bottlenecks on its
    leader (every request funnels through it); the multi-leader
    protocols spread the work; Domino edges ahead thanks to the
    implementation's I/O-compute parallelism.

    The reproduction models per-message CPU service time at each
    replica (an M/G/k queue in {!Domino_net.Fifo_net}): proposal
    handling is the expensive step, acknowledgements and commit
    notifications are cheap, and Domino's extra pipeline parallelism is
    modelled with a second service worker. Absolute numbers follow the
    calibration constants; the ordering and the leader-bottleneck gap
    are structural. *)

val table : ?quick:bool -> ?seed:int64 -> unit -> Domino_stats.Tablefmt.t
