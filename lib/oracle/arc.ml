open Relational

let closure ~restrict a b =
  let n = Structure.size a and m = Structure.size b in
  let occ = Array.make n [] in
  Structure.iter_tuples
    (fun name t ->
      List.iter (fun x -> occ.(x) <- (name, t) :: occ.(x)) (Tuple.elements t))
    a;
  (* Symbols missing from B, or present with a different arity, act as empty
     relations: no tuple of B can support such an atom. *)
  let brels = Hashtbl.create 16 in
  List.iter
    (fun (name, arity) ->
      let tuples =
        match Structure.relation b name with
        | r when Relation.arity r = arity -> Relation.tuples_array r
        | _ -> [||]
        | exception Not_found -> [||]
      in
      Hashtbl.replace brels name tuples)
    (Vocabulary.symbols (Structure.vocabulary a));
  let dom = Array.init n (fun x -> Array.init m (restrict x)) in
  let count =
    Array.map (Array.fold_left (fun c alive -> if alive then c + 1 else c) 0) dom
  in
  let pending = Queue.create () and in_pending = Array.make n false in
  let schedule x =
    if not in_pending.(x) then begin
      in_pending.(x) <- true;
      Queue.add x pending
    end
  in
  let remove_value x v =
    dom.(x).(v) <- false;
    count.(x) <- count.(x) - 1;
    schedule x;
    count.(x) > 0
  in
  (* Revise one tuple-constraint by rescanning the whole target relation. *)
  let revise name (t : Tuple.t) =
    let arity = Array.length t in
    let tuples = Hashtbl.find brels name in
    let supp = Array.init arity (fun _ -> Array.make m false) in
    Array.iter
      (fun (tt : Tuple.t) ->
        let ok = ref true in
        (try
           for j = 0 to arity - 1 do
             if not dom.(t.(j)).(tt.(j)) then begin
               ok := false;
               raise Exit
             end
           done
         with Exit -> ());
        if !ok then
          for j = 0 to arity - 1 do
            supp.(j).(tt.(j)) <- true
          done)
      tuples;
    let alive = ref true in
    for j = 0 to arity - 1 do
      if !alive then
        for v = 0 to m - 1 do
          if !alive && dom.(t.(j)).(v) && not supp.(j).(v) then
            if not (remove_value t.(j) v) then alive := false
        done
    done;
    !alive
  in
  for x = 0 to n - 1 do
    schedule x
  done;
  let alive = ref (Array.for_all (fun c -> c > 0) count) in
  while !alive && not (Queue.is_empty pending) do
    let x = Queue.pop pending in
    in_pending.(x) <- false;
    List.iter (fun (name, t) -> if !alive then alive := revise name t) occ.(x)
  done;
  if !alive then
    Some (Array.map (fun d -> List.filter (Array.get d) (List.init m Fun.id)) dom)
  else None
