type clause_state = {
  index : int; (* position in the formula's clause list *)
  head : int option; (* the positive variable, if any *)
  mutable pending : int; (* negatives not yet set to true *)
}

let solve formula =
  if not (Cnf.is_horn formula) then invalid_arg "Horn_sat.solve: formula is not Horn";
  let n = formula.Cnf.nvars in
  let value = Array.make n false in
  let queue = Queue.create () in
  (* The clauses that forced a variable, latest first, and the falsified
     clause once one shows up. *)
  let trace = ref [] and conflict = ref None in
  let fire st =
    if !conflict = None then
      match st.head with
      | None -> conflict := Some st.index
      | Some h when not value.(h) ->
        value.(h) <- true;
        Telemetry.count "schaefer.unit_propagations" 1;
        trace := st.index :: !trace;
        Queue.add h queue
      | Some _ -> ()
  in
  (* Normalize clauses: drop tautologies, dedupe literals. *)
  let watch = Array.make n [] in
  List.iteri
    (fun index clause ->
      let head = ref None and negatives = ref [] in
      List.iter
        (fun l ->
          if l.Cnf.sign then head := Some l.Cnf.var
          else if not (List.mem l.Cnf.var !negatives) then
            negatives := l.Cnf.var :: !negatives)
        clause;
      let negatives = !negatives and head = !head in
      let tautology =
        match head with Some h -> List.mem h negatives | None -> false
      in
      if not tautology then begin
        let st = { index; head; pending = List.length negatives } in
        List.iter (fun v -> watch.(v) <- st :: watch.(v)) negatives;
        if st.pending = 0 then fire st
      end)
    formula.Cnf.clauses;
  while !conflict = None && not (Queue.is_empty queue) do
    let v = Queue.pop queue in
    List.iter
      (fun st ->
        st.pending <- st.pending - 1;
        if st.pending = 0 then fire st)
      watch.(v)
  done;
  match !conflict with
  | None -> Ok value
  | Some c -> Error (List.rev (c :: !trace))

let solve_dual formula =
  if not (Cnf.is_dual_horn formula) then
    invalid_arg "Horn_sat.solve_dual: formula is not dual Horn";
  Result.map (Array.map not) (solve (Cnf.flip_signs formula))
