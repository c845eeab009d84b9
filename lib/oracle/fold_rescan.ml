open Relational

(* Drop [x], absorbing it into [y]; the fold maps [x] to [y] and shifts
   the rest down.  [Homomorphism.folds_onto] has already certified that
   every tuple through [x] survives the substitution, so the induced
   substructure on the remaining elements carries them all. *)
let apply_fold st x y =
  let n = Structure.size st in
  let smaller =
    Structure.induced st (List.filter (fun e -> e <> x) (Structure.universe st))
  in
  let renum e = if e > x then e - 1 else e in
  let step_fold = Array.init n (fun e -> renum (if e = x then y else e)) in
  let step_embed = Array.init (n - 1) (fun i -> if i < x then i else i + 1) in
  (smaller, step_fold, step_embed)

(* Greedy passes to fixpoint, scanning elements top-down.  One budget
   tick per domination test; on exhaustion the last completed fold is
   kept. *)
let run ~budget st0 =
  let id = Array.init (Structure.size st0) Fun.id in
  let best = ref (st0, id, id, 0) in
  let rec pass st fold embed folded =
    best := (st, fold, embed, folded);
    let found = ref None in
    let x = ref (Structure.size st - 1) in
    while !found = None && !x >= 0 do
      List.iter
        (fun y ->
          if !found = None then begin
            Budget.tick budget;
            if Homomorphism.folds_onto st !x y then found := Some (!x, y)
          end)
        (Homomorphism.fold_candidates st !x);
      decr x
    done;
    match !found with
    | None -> ()
    | Some (x, y) ->
      let smaller, step_fold, step_embed = apply_fold st x y in
      pass smaller
        (Homomorphism.compose step_fold fold)
        (Homomorphism.compose embed step_embed)
        (folded + 1)
  in
  let bailed =
    try
      pass st0 id id 0;
      false
    with Budget.Exhausted _ -> true
  in
  let st, fold, embed, folded = !best in
  (st, fold, embed, folded, bailed)
