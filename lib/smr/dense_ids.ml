type t = {
  mutable low : int array;
      (** per client node: every seq in [\[0, low)] is a member *)
  above : unit Op.Idtbl.t;  (** members not under their client's mark *)
}

let create () = { low = [||]; above = Op.Idtbl.create 64 }

let low t client =
  if client >= 0 && client < Array.length t.low then t.low.(client) else 0

let under t (client, seq) = seq >= 0 && client >= 0 && seq < low t client

let mem t id = under t id || Op.Idtbl.mem t.above id

let set_low t client v =
  if client >= Array.length t.low then begin
    let low = Array.make (Stdlib.max (client + 1) (2 * Array.length t.low)) 0 in
    Array.blit t.low 0 low 0 (Array.length t.low);
    t.low <- low
  end;
  t.low.(client) <- v

let add t ((client, seq) as id) =
  if not (under t id) then
    if client >= 0 && seq = low t client then begin
      (* Extend the mark over the run the table holds right above it. *)
      let next = ref (seq + 1) in
      while Op.Idtbl.mem t.above (client, !next) do
        Op.Idtbl.remove t.above (client, !next);
        incr next
      done;
      set_low t client !next
    end
    else Op.Idtbl.replace t.above id ()

let clear t =
  t.low <- [||];
  Op.Idtbl.reset t.above

let elements t =
  let under =
    List.concat
      (List.mapi
         (fun client n -> List.init n (fun seq -> (client, seq)))
         (Array.to_list t.low))
  in
  List.sort Op.compare_id
    (Op.Idtbl.fold (fun id () acc -> id :: acc) t.above under)
