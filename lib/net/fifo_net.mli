(** Simulated message network with per-link FIFO delivery.

    Domino requires FIFO channels between nodes (§5.1; it uses TCP).
    This module delivers each message after a delay drawn from the
    directed {!Link}, but never earlier than the previously sent
    message on the same directed pair — exactly TCP's in-order
    guarantee, including head-of-line blocking behind a retransmitted
    segment.

    The network is polymorphic in the message type: each experiment
    instantiates one network per protocol under test. Crashed nodes
    silently drop traffic in both directions (crash failure model). *)

open Domino_sim

type 'msg t

type drop_reason =
  | Src_down  (** source was crashed at the send instant *)
  | Dst_down  (** destination was crashed at the delivery instant *)
  | Dst_crashed
      (** destination crashed after the send — the message dies at
          delivery time even if the node has since recovered (TCP
          connections do not survive a reboot) *)
  | No_handler

val drop_reason_string : drop_reason -> string

val create : Engine.t -> n:int -> 'msg t
(** [create engine ~n] makes a network of [n] nodes with perfect clocks
    and no links. Links must be installed with {!set_link} (or
    {!install_matrix}) before traffic flows between distinct nodes;
    self-delivery works out of the box. *)

val engine : 'msg t -> Engine.t

val size : 'msg t -> int

val set_link : 'msg t -> src:Nodeid.t -> dst:Nodeid.t -> Link.t -> unit

val link : 'msg t -> src:Nodeid.t -> dst:Nodeid.t -> Link.t
(** @raise Invalid_argument if absent. *)

val set_clock : 'msg t -> Nodeid.t -> Clock.t -> unit

val clock : 'msg t -> Nodeid.t -> Clock.t

val local_time : 'msg t -> Nodeid.t -> Time_ns.t
(** The node's local clock reading at the current simulated instant.
    Protocol code must use this, never {!Engine.now}, for anything that
    ends up in a timestamp. *)

val set_handler : 'msg t -> Nodeid.t -> (src:Nodeid.t -> 'msg -> unit) -> unit
(** Install the message handler for a node (replaces any previous). *)

val send : 'msg t -> src:Nodeid.t -> dst:Nodeid.t -> 'msg -> unit
(** Queue a message. Delivery invokes the destination handler after the
    link delay, in FIFO order per (src, dst). Messages to or from a
    crashed node are dropped. Sending without an installed link between
    distinct nodes raises. *)

val broadcast :
  'msg t -> src:Nodeid.t -> dsts:Nodeid.t list -> (Nodeid.t -> 'msg) -> unit
(** [broadcast t ~src ~dsts f] sends [f dst] to each destination. *)

val crash : 'msg t -> Nodeid.t -> unit
(** Take a node down: future sends from it are refused, and every
    message addressed to it — including ones already in flight — is
    dropped at its delivery instant ([Dst_crashed]), even if the node
    has {!recover}ed by then. Idempotent while down. *)

val restart : 'msg t -> Nodeid.t -> unit

val recover : 'msg t -> Nodeid.t -> unit
(** Bring a crashed node back up (alias of {!restart}): it resumes with
    its volatile protocol state intact — a network severance / process
    pause. This is the {e benign} recovery; a disk-wiping reboot is
    {!wipe_restart}, which loses volatile state and unsynced storage
    and rebuilds from the node's stable store. *)

val set_wipe_hook :
  'msg t -> Nodeid.t -> wipe:(unit -> Time_ns.span) -> replay:(unit -> unit) -> unit
(** Install the node's wipe-restart hooks (replaces any previous):
    [wipe] runs at the wipe instant — it must drop the node's volatile
    protocol state and its store's unsynced tail, and return the
    modeled recovery duration; [replay] runs at the restart instant,
    after the node is back up, to rebuild state from stable storage. *)

val wipe_restart : 'msg t -> Nodeid.t -> Time_ns.span
(** Crash-with-amnesia: crash the node if it is up (epoch bump — see
    {!crash}), run its [wipe] hook, and schedule restart + [replay]
    after the returned recovery span, which is also returned to the
    caller. A node without hooks restarts immediately with state
    intact, i.e. degrades to {!recover}. *)

val is_up : 'msg t -> Nodeid.t -> bool

val set_partition : 'msg t -> src:Nodeid.t -> dst:Nodeid.t -> bool -> unit
(** [set_partition t ~src ~dst true] stalls the directed pair: messages
    reaching their delivery instant are stashed instead of delivered
    (TCP keeps retransmitting — nothing is lost). [false] heals it:
    stalled deliveries flush immediately, in FIFO order. Asymmetric by
    construction; callers wanting a symmetric cut set both directions. *)

val partitioned : 'msg t -> src:Nodeid.t -> dst:Nodeid.t -> bool

val set_service :
  'msg t -> Nodeid.t -> workers:int -> cost:('msg -> Time_ns.span) -> unit
(** Give a node finite message-processing capacity: each delivered
    message occupies one of [workers] service slots for [cost msg]
    before the handler runs (an M/G/k queue). Used by the throughput
    study (paper Figure 13), where CPU, not propagation, is the
    bottleneck. Unset nodes process instantly. *)

val service_busy_ns : 'msg t -> Nodeid.t -> Time_ns.span
(** Cumulative service time consumed at the node (0 if no service). *)

val messages_sent : 'msg t -> int
(** Total messages accepted by {!send} since creation. *)

val messages_delivered : 'msg t -> int

val set_message_hooks :
  'msg t ->
  sent:(seq:int -> src:Nodeid.t -> dst:Nodeid.t -> 'msg -> at:Time_ns.t -> unit) ->
  delivered:
    (seq:int ->
    src:Nodeid.t ->
    dst:Nodeid.t ->
    'msg ->
    sent_at:Time_ns.t ->
    at:Time_ns.t ->
    unit) ->
  dropped:
    (seq:int ->
    src:Nodeid.t ->
    dst:Nodeid.t ->
    'msg ->
    reason:drop_reason ->
    at:Time_ns.t ->
    unit) ->
  unit
(** Install the observability hooks (replaces any previous). [sent]
    fires at the send instant; [seq] is a network-wide message sequence
    number pairing it with its delivery. [delivered] fires just before
    the destination handler runs (so [at] includes any service-queue
    wait). [dropped] fires where a message dies silently: source
    crashed at the send instant ([seq] is then [-1]: no sequence number
    was assigned, so {!messages_sent} is unaffected), or destination
    crashed / had no handler at the delivery instant. The observability
    layer uses these for per-message-class metrics, journal records and
    per-op span traces. Labeled-argument hooks instead of an event
    variant: tracing allocates nothing, and an unset hook costs a
    single [option] match. *)


val set_drop_hook :
  'msg t ->
  (reason:drop_reason ->
  seq:int ->
  src:Nodeid.t ->
  dst:Nodeid.t ->
  at:Time_ns.t ->
  unit) ->
  unit
(** Install a message-type-agnostic drop observer (replaces any
    previous): called for every drop, before the tracer. The fault
    layer uses this to journal [fault.drop] events without knowing the
    network's message type. *)

