(* Regenerates every golden this module owns — each journal golden in
   Golden_runs.journals (md5 and head), the na3-domino metrics JSON, the
   metrics JSON and extra counters of Golden_runs.faulted_runs, and the
   analyze CSVs pinned by test_timeline — into a directory:

     dune exec test/gen_golden.exe -- test/golden

   Only do this when a journal, metrics, timeline or dip format
   deliberately changes; the goldens otherwise pin byte-identical
   output. *)
let () =
  let dir = Sys.argv.(1) in
  let write name s =
    let oc = open_out_bin (Filename.concat dir name) in
    output_string oc s;
    close_out oc
  in
  List.iter
    (fun (name, run) ->
      let lines = Domino_obs.Journal.to_lines (run ()) in
      write (name ^ ".journal.md5") (Golden_runs.md5 lines ^ "\n");
      write (name ^ ".journal.head") (Golden_runs.head lines))
    Golden_runs.journals;
  write "na3-domino.metrics.json" (snd (Golden_runs.na3_domino ()));
  List.iter
    (fun (name, run) ->
      let _, metrics, extra = run () in
      write (name ^ ".metrics.json") metrics;
      write (name ^ ".extra") extra)
    Golden_runs.faulted_runs;
  let replay name j =
    Printf.eprintf "%s journal: %d events, %d dropped\n%!" name
      (Domino_obs.Journal.length j)
      (Domino_obs.Journal.dropped j);
    Domino_obs.Timeline.of_journal
      ~group_resolver:Domino_shard.Slots.resolver_of_mark j
  in
  List.iter
    (fun (name, j) ->
      let tl = replay name j in
      write (name ^ "-smoke.timeline.csv") (Domino_obs.Timeline.to_csv tl);
      write (name ^ "-smoke.dips.csv")
        (Domino_obs.Dip.to_csv (Domino_obs.Dip.analyze tl)))
    [
      ("recovery", Domino_exp.Exp_recovery.smoke_journal ~seed:42L ());
      ("rebalance", Domino_exp.Exp_rebalance.smoke_journal ~seed:42L ());
    ]
