open Schaefer

let solve formula =
  if not (Cnf.is_two_cnf formula) then
    invalid_arg "Two_sat_phase.solve: clause with more than two literals";
  let n = formula.Cnf.nvars in
  let value = Array.make n (-1) in
  let occurs = Array.make n [] in
  let ok = ref true in
  List.iter
    (fun clause ->
      match clause with
      | [] -> ok := false
      | c -> List.iter (fun l -> occurs.(l.Cnf.var) <- c :: occurs.(l.Cnf.var)) c)
    formula.Cnf.clauses;
  if not !ok then None
  else begin
    let trail = Stack.create () in
    let queue = Queue.create () in
    let conflict = ref false in
    let set v b =
      if value.(v) = -1 then begin
        value.(v) <- (if b then 1 else 0);
        Stack.push v trail;
        Queue.add v queue
      end
      else if value.(v) <> if b then 1 else 0 then conflict := true
    in
    let lit_value l =
      match value.(l.Cnf.var) with
      | -1 -> -1
      | v -> if l.Cnf.sign then v else 1 - v
    in
    let propagate_from v0 b0 =
      conflict := false;
      Queue.clear queue;
      set v0 b0;
      while (not !conflict) && not (Queue.is_empty queue) do
        let v = Queue.pop queue in
        List.iter
          (fun clause ->
            if not !conflict then
              match clause with
              | [ l ] -> if lit_value l = 0 then conflict := true
              | [ l1; l2 ] ->
                let v1 = lit_value l1 and v2 = lit_value l2 in
                if v1 = 0 && v2 = 0 then conflict := true
                else if v1 = 0 && v2 = -1 then set l2.Cnf.var l2.Cnf.sign
                else if v2 = 0 && v1 = -1 then set l1.Cnf.var l1.Cnf.sign
              | _ -> assert false)
          occurs.(v)
      done;
      not !conflict
    in
    let undo_phase () =
      while not (Stack.is_empty trail) do
        value.(Stack.pop trail) <- -1
      done
    in
    (* Unit clauses must hold in every phase; seed them first. *)
    let seed_ok =
      List.for_all
        (fun clause ->
          match clause with
          | [ l ] ->
            (match lit_value l with
            | 0 -> false
            | 1 -> true
            | _ -> propagate_from l.Cnf.var l.Cnf.sign)
          | _ -> true)
        formula.Cnf.clauses
    in
    (* Keep seeded assignments permanently. *)
    Stack.clear trail;
    if not seed_ok then None
    else begin
      let rec phases v =
        if v >= n then Some (Array.map (fun x -> x = 1) value)
        else if value.(v) >= 0 then phases (v + 1)
        else if propagate_from v true then begin
          Stack.clear trail;
          phases (v + 1)
        end
        else begin
          undo_phase ();
          if propagate_from v false then begin
            Stack.clear trail;
            phases (v + 1)
          end
          else None
        end
      in
      phases 0
    end
  end
