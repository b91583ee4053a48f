(** Export a {!Journal} as Chrome trace-event JSON, viewable in
    ui.perfetto.dev (or chrome://tracing).

    Layout: one process ("domino-sim"), one thread track per simulated
    node. Phase events with a duration become complete slices;
    instantaneous ones become instant events. Each message contributes
    a pair of 1µs anchor slices (send on the source track, delivery on
    the destination track) joined by a flow arrow keyed on the
    network-wide sequence number. Gauge samples become counter tracks;
    sweep marks become global instants. Timer fires are deliberately
    omitted — they dominate event counts and carry no location.

    Timestamps are the journal's nanosecond sim-times converted to the
    trace format's microseconds. Output is deterministic: same
    journal, same bytes. *)

val to_string : ?timeline:Timeline.t -> Journal.t -> string
(** Compact rendering of {!of_journal} (these files get large). *)
