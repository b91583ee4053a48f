let jobs_override = ref None

let recommended () = Domain.recommended_domain_count ()

let set_jobs n =
  if n < 1 then invalid_arg "Par.set_jobs: jobs must be >= 1";
  jobs_override := Some n

let jobs () =
  match !jobs_override with Some n -> n | None -> recommended ()

(* Physical cores: distinct (physical id, core id) pairs in
   /proc/cpuinfo. SMT siblings share a pair, so the count excludes
   hyperthreads; the simulator is compute-bound and gains nothing from
   oversubscribing them. Falls back to the "processor" line count
   (cpuinfo without topology fields), then to [recommended]. *)
let physical_cores () =
  match open_in "/proc/cpuinfo" with
  | exception Sys_error _ -> recommended ()
  | ic ->
    Fun.protect
      ~finally:(fun () -> close_in_noerr ic)
      (fun () ->
        let pairs = Hashtbl.create 64 in
        let logical = ref 0 in
        let phys = ref (-1) in
        let int_of v = match int_of_string_opt v with Some n -> n | None -> -1 in
        (try
           while true do
             let line = input_line ic in
             match String.index_opt line ':' with
             | None -> ()
             | Some i ->
               let key = String.trim (String.sub line 0 i) in
               let v =
                 String.trim
                   (String.sub line (i + 1) (String.length line - i - 1))
               in
               if key = "processor" then incr logical
               else if key = "physical id" then phys := int_of v
               else if key = "core id" then
                 Hashtbl.replace pairs (!phys, int_of v) ()
           done
         with End_of_file -> ());
        if Hashtbl.length pairs > 0 then Hashtbl.length pairs
        else if !logical > 0 then !logical
        else recommended ())

(* One task outcome per input slot. Workers write disjoint slots, so
   the only shared mutable state is the [next] task counter; the
   [Domain.join] barrier publishes every slot to the caller. *)
type 'b outcome = ('b, exn * Printexc.raw_backtrace) result option

let map ?jobs:requested f (input : 'a array) : 'b array =
  let n = Array.length input in
  let k = match requested with Some v -> v | None -> jobs () in
  let k = Stdlib.max 1 (Stdlib.min k n) in
  if k <= 1 then Array.map f input
  else begin
    let results : 'b outcome array = Array.make n None in
    let next = Atomic.make 0 in
    let worker () =
      let continue = ref true in
      while !continue do
        let i = Atomic.fetch_and_add next 1 in
        if i >= n then continue := false
        else begin
          let r =
            match f input.(i) with
            | v -> Ok v
            | exception e -> Error (e, Printexc.get_raw_backtrace ())
          in
          results.(i) <- Some r
        end
      done
    in
    let helpers = Array.init (k - 1) (fun _ -> Domain.spawn worker) in
    worker ();
    Array.iter Domain.join helpers;
    (* Deliver in task-index order; on failure re-raise the exception
       of the lowest-indexed failed task, independent of scheduling. *)
    Array.map
      (function
        | Some (Ok v) -> v
        | Some (Error (e, bt)) -> Printexc.raise_with_backtrace e bt
        | None -> assert false)
      results
  end

let mapi ?jobs f input =
  map ?jobs (fun (i, x) -> f i x) (Array.mapi (fun i x -> (i, x)) input)

let map_list ?jobs f xs = Array.to_list (map ?jobs f (Array.of_list xs))
