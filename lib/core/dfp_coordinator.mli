open Domino_sim
open Domino_smr

(** The DFP coordinator: learner of every DFP instance, driver of
    coordinated recovery, and producer of the decided watermark.

    Soundness of the implicit no-op fill rests on FIFO channels: a
    heartbeat carrying watermark [T] from replica [i] is processed only
    after every vote [i] cast for positions below [T], so "no vote from
    [i] at ts < T_i" really means [i] accepted a no-op there (§5.3.2).

    Per tracked position (one with at least one vote) the coordinator
    decides:
    - {e fast} when q reports agree on a value (an op, or no-op);
    - {e slow} (coordinated recovery, classic round 1) once no value
      can reach q: the value picked is the one voted by ≥ q−f of the
      first classic quorum of reports — the Fast Paxos safety rule —
      defaulting to the most-voted operation.

    Positions that never see a vote are no-op-committed in bulk: the
    q-th largest replica watermark bounds them. The decided watermark
    [upto] announced to replicas is the largest timestamp below which
    every position is decided; it stalls at undecided tracked
    positions, which is why slow paths delay execution (§5.7).

    Operations that lose their position (late arrival or collision) are
    handed to the [rescue] callback, which re-proposes them through
    Domino's Mencius (§5.3.3). *)

type callbacks = {
  send_commit : Time_ns.t -> Op.t option -> unit;
      (** broadcast a decision to every replica *)
  send_p2a : Time_ns.t -> Op.t option -> unit;
  send_slow_reply : Op.t -> unit;
      (** notify the submitting client of a slow-path commit *)
  send_watermark : Time_ns.t -> unit;  (** broadcast decided watermark *)
  send_commit_to : int -> Time_ns.t -> Op.t option -> unit;
      (** re-send one decision to a single lagging replica (crash
          catch-up) *)
  send_watermark_to : int -> Time_ns.t -> complete:bool -> unit;
      (** resync watermark answering a [Dfp_pull]: every decided
          operation at or below it that the replica lacked was just
          re-sent; [complete] when the batch reached the decided
          watermark (the replica may trust broadcasts again) *)
  rescue : Op.t -> unit;  (** re-propose a lost operation via DM *)
}

type t

val create : ?store:Domino_store.Store.t -> Config.t -> callbacks -> t
(** [store] (shared with the co-located replica) receives the
    coordinator's WAL records: "cdec" before a decision is
    externalized — the commit
    broadcast, slow reply and loser rescues wait for its fsync — and
    "cwm" before a decided watermark is announced, since the watermark
    no-op-blankets untracked positions and must survive an amnesiac
    restart. Omitted: no durability (engine-less unit tests). *)

val on_vote :
  t ->
  ts:Time_ns.t ->
  subject:Op.t ->
  report:Message.dfp_report ->
  acceptor:int ->
  watermark:Time_ns.t ->
  unit

val on_heartbeat : t -> acceptor:int -> watermark:Time_ns.t -> unit
(** Fold in the heartbeat's piggybacked no-op-fill watermark. *)

val on_pull : t -> acceptor:int -> from:Time_ns.t -> unit
(** Crash/loss catch-up: the replica detected a gap in its numbered
    decision stream, so the broadcasts it missed may include decided
    operations that an ordinary watermark would silently no-op-fill.
    Re-send every decided operation above [from] (its sound coverage
    frontier) in timestamp order, then a resync watermark bounding what
    the batch covered, marked [complete] when it reached [w_dec]. *)

val on_p2b : t -> ts:Time_ns.t -> acceptor:int -> unit

val check_stuck : t -> now:Time_ns.t -> unit
(** Start (or re-drive) coordinated recovery for every tracked position
    that has sat undecided longer than a patience threshold and has a
    classic quorum of round-0 reports — the liveness escape hatch for
    fast-round votes lost to crashes, where no implicit no-op report
    will ever complete the tally. Called from the heartbeat timer. *)

val tick : t -> unit
(** Called every heartbeat interval: announces the decided watermark if
    it advanced. *)

val decided_watermark : t -> Time_ns.t

val fast_decisions : t -> int
val slow_decisions : t -> int
val noop_conflicts : t -> int
(** Positions where a client operation collided with no-ops or another
    operation (i.e. DFP's fast path failed for that op). *)

val undecided_positions : t -> int

val wipe_volatile : t -> unit
(** Drop everything an amnesiac reboot loses: tracked posts, acceptor
    watermarks, the decided watermark and the committed-op set. Pair
    with {!replay_record} over the surviving records. *)

val replay_record : t -> Domino_store.Store.record -> unit
(** Re-apply one surviving "cdec"/"cwm" record or snapshot record (in
    log order): decided positions and the durable decided-watermark
    blanket are restored without re-externalizing anything. Records it
    does not own — the co-located replica's — are ignored. *)

val snapshot : t -> upto:int -> Domino_store.Store.record list
(** The coordinator's records for a snapshot replacing its store's log
    below [upto], the store's disk frontier: the decided posts still
    tracked whose "cdec" synced, the durable decided watermark, the
    committed-op set and the fast/slow decision counts, less the
    unsynced decisions above [upto]. The committed-op set is the
    previous snapshot's, shared, plus the ops of the "cdec" records
    since its frontier: a snapshot costs what the second decided, not
    what the run did. Empty without a store. *)

val recovery_state : t -> (string * int list) list
(** The state replay rebuilds, field by field as integers, to compare
    two recoveries: the decided posts above the decided watermark, that
    watermark, its durable blanket, the committed-op set and the
    fast/slow decision counts. *)
