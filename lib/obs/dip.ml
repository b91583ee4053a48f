module Json = Domino_stats.Json
module Tablefmt = Domino_stats.Tablefmt
open Domino_sim

type report = {
  seg : int;
  label : string;
  fault : string;
  detail : string;
  at_ms : float;
  heal_ms : float;
  baseline_rps : float;
  dip_rps : float;
  dip_pct : float;
  recovered_ms : float;
  ttr_ms : float;
  p99_base_ms : float;
  p99_spike_ms : float;
}

let is_start = function
  | "crash" | "wipe" | "partition" | "degrade" | "skew" | "migrate"
  | "reconfig" | "reconfig.transfer" | "reconfig.roll"
  | "reconfig.roll_node" ->
    true
  | _ -> false

let heal_kinds = function
  | "crash" -> [ "recover" ]
  | "partition" -> [ "heal" ]
  | "degrade" -> [ "restore" ]
  | "migrate" -> [ "migrate.done"; "migrate.abort" ]
  | "reconfig" -> [ "reconfig.done"; "reconfig.abort" ]
  | "reconfig.transfer" -> [ "reconfig.transfer_done" ]
  | "reconfig.roll" -> [ "reconfig.roll_done" ]
  | _ -> []
(* wipe and reconfig.roll_node heal via recovery.up (node-matched);
   skew is never healed *)

(* First token of a detail string: "node=3 ..." -> Some 3 for "node";
   "slot=5 from=g0 ..." -> Some 5 for "slot". *)
let first_field_of_detail key detail =
  match String.split_on_char ' ' detail with
  | tok :: _ -> (
    match String.index_opt tok '=' with
    | Some i when String.sub tok 0 i = key ->
      int_of_string_opt (String.sub tok (i + 1) (String.length tok - i - 1))
    | _ -> None)
  | [] -> None

let node_of_detail = first_field_of_detail "node"

let slot_of_detail = first_field_of_detail "slot"

let find_heal (seg : Timeline.segment) ~at ~kind ~detail =
  let node = node_of_detail detail in
  let slot = slot_of_detail detail in
  let best = ref None in
  let consider t = match !best with Some b when b <= t -> () | _ -> best := Some t in
  (match heal_kinds kind with
  | [] -> ()
  | hks ->
    Array.iter
      (fun (hat, hkind, hdetail) ->
        if
          (* >=, not >: a synchronous control hook (Domino/Mencius
             leader steering) journals transfer_done at the same
             timestamp as transfer; the kinds differ, so the start
             event itself can never match *)
          hat >= at
          && List.mem hkind hks
          && (node = None || node_of_detail hdetail = node)
          && (slot = None || slot_of_detail hdetail = slot)
        then consider hat)
      seg.Timeline.faults);
  if kind = "wipe" || kind = "reconfig.roll_node" then
    Array.iter
      (fun (rat, rnode, stage) ->
        if rat > at && stage = "up" && (node = None || node = Some rnode) then
          consider rat)
      seg.Timeline.recoveries;
  !best

let mean_opt = function
  | [] -> nan
  | l -> List.fold_left ( +. ) 0. l /. float_of_int (List.length l)

let analyze ?(baseline_windows = 10) ?(recover_within = 0.1) (t : Timeline.t) =
  let reports = ref [] in
  List.iteri
    (fun seg_no (seg : Timeline.segment) ->
      let window = seg.Timeline.window in
      let pts = seg.Timeline.cluster in
      let n = Array.length pts in
      let rps i = Timeline.rps ~window pts.(i) in
      let p99 i = pts.(i).Timeline.p99_ms in
      Array.iter
        (fun (at, kind, detail) ->
          if is_start kind then begin
            let fi = Stdlib.min (at / window) (n - 1) in
            let base_lo = Stdlib.max 0 (fi - baseline_windows) in
            let baseline_rps =
              mean_opt (List.init (fi - base_lo) (fun i -> rps (base_lo + i)))
            in
            let p99_base_ms =
              mean_opt
                (List.filter (fun v -> not (Float.is_nan v))
                   (List.init (fi - base_lo) (fun i -> p99 (base_lo + i))))
            in
            let thr = (1. -. recover_within) *. baseline_rps in
            (* Recovered at the first window back at threshold that is
               followed by another (or is the last) — a single lucky
               window inside an outage doesn't count. *)
            let recovered =
              if Float.is_nan thr then None
              else
                let rec go j =
                  if j >= n then None
                  else if rps j >= thr && (j + 1 >= n || rps (j + 1) >= thr)
                  then Some j
                  else go (j + 1)
                in
                go fi
            in
            let span_end = match recovered with Some j -> j | None -> n - 1 in
            let dip_rps = ref infinity and p99_spike_ms = ref nan in
            for j = fi to span_end do
              if rps j < !dip_rps then dip_rps := rps j;
              let v = p99 j in
              if not (Float.is_nan v) then
                p99_spike_ms :=
                  (if Float.is_nan !p99_spike_ms then v
                   else Float.max !p99_spike_ms v)
            done;
            let dip_rps = if n = 0 then nan else !dip_rps in
            let dip_pct =
              if Float.is_nan baseline_rps || baseline_rps <= 0. then nan
              else 100. *. (1. -. (dip_rps /. baseline_rps))
            in
            let at_ms = Time_ns.to_ms_f at in
            let recovered_ms =
              match recovered with
              | Some j ->
                Timeline.window_start_ms ~window (j + 1)
              | None -> nan
            in
            let heal_ms =
              match find_heal seg ~at ~kind ~detail with
              | Some t -> Time_ns.to_ms_f t
              | None -> nan
            in
            reports :=
              {
                seg = seg_no;
                label = seg.Timeline.label;
                fault = kind;
                detail;
                at_ms;
                heal_ms;
                baseline_rps;
                dip_rps;
                dip_pct;
                recovered_ms;
                ttr_ms = recovered_ms -. at_ms;
                p99_base_ms;
                p99_spike_ms = !p99_spike_ms;
              }
              :: !reports
          end)
        seg.Timeline.faults)
    t;
  List.rev !reports

(* --- rendering --- *)

let sanitize s = String.map (fun c -> if c = ',' then ';' else c) s

let fmt_f3 v = if Float.is_nan v then "" else Printf.sprintf "%.3f" v

let to_csv reports =
  let buf = Buffer.create 1024 in
  Buffer.add_string buf
    "seg,label,fault,detail,at_ms,heal_ms,baseline_rps,dip_rps,dip_pct,\
     ttr_ms,p99_base_ms,p99_spike_ms\n";
  List.iter
    (fun r ->
      Printf.bprintf buf "%d,%s,%s,%s,%s,%s,%s,%s,%s,%s,%s,%s\n" r.seg
        (sanitize r.label) r.fault (sanitize r.detail) (fmt_f3 r.at_ms)
        (fmt_f3 r.heal_ms) (fmt_f3 r.baseline_rps) (fmt_f3 r.dip_rps)
        (fmt_f3 r.dip_pct) (fmt_f3 r.ttr_ms) (fmt_f3 r.p99_base_ms)
        (fmt_f3 r.p99_spike_ms))
    reports;
  Buffer.contents buf

let to_json reports =
  Json.List
    (List.map
       (fun r ->
         Json.Obj
           [
             ("seg", Json.Int r.seg);
             ("label", Json.String r.label);
             ("fault", Json.String r.fault);
             ("detail", Json.String r.detail);
             ("at_ms", Json.Float r.at_ms);
             ("heal_ms", Json.Float r.heal_ms);
             ("baseline_rps", Json.Float r.baseline_rps);
             ("dip_rps", Json.Float r.dip_rps);
             ("dip_pct", Json.Float r.dip_pct);
             ("recovered_ms", Json.Float r.recovered_ms);
             ("ttr_ms", Json.Float r.ttr_ms);
             ("p99_base_ms", Json.Float r.p99_base_ms);
             ("p99_spike_ms", Json.Float r.p99_spike_ms);
           ])
       reports)

let header =
  [ "at"; "base_rps"; "dip_rps"; "dip%"; "ttr"; "p99_base"; "p99_spike" ]

let cells r =
  [
    Tablefmt.cell_ms r.at_ms;
    Tablefmt.cell_f r.baseline_rps;
    Tablefmt.cell_f r.dip_rps;
    Tablefmt.cell_f r.dip_pct;
    (if Float.is_nan r.ttr_ms then "never" else Tablefmt.cell_ms r.ttr_ms);
    Tablefmt.cell_ms r.p99_base_ms;
    Tablefmt.cell_ms r.p99_spike_ms;
  ]

let to_table reports =
  let tbl =
    Tablefmt.create ~title:"fault dips"
      ~header:([ "seg"; "label"; "fault"; "detail" ] @ header)
  in
  List.iter
    (fun r ->
      Tablefmt.add_row tbl
        ([
           string_of_int r.seg;
           (if r.label = "" then "-" else r.label);
           r.fault;
           r.detail;
         ]
        @ cells r))
    reports;
  tbl
