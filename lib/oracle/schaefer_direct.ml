open Relational

type outcome =
  | Hom of Homomorphism.mapping
  | No_hom
  | Not_applicable of string

(* Each element of [A] with the facts it occurs in. *)
let occurrences a =
  let occ = Array.make (max (Structure.size a) 1) [] in
  Structure.iter_tuples
    (fun name t ->
      List.iter (fun x -> occ.(x) <- (name, t) :: occ.(x)) (Tuple.elements t))
    a;
  occ

(* The tuples of [B], as bit masks, per symbol of [A]'s vocabulary; a
   symbol [B] lacks is the empty relation. *)
let target_masks a b =
  let table = Hashtbl.create 16 in
  List.iter
    (fun (name, arity) ->
      let r =
        match Structure.relation b name with
        | r -> Schaefer.Boolean_relation.of_relation r
        | exception Not_found -> Schaefer.Boolean_relation.create arity []
      in
      Hashtbl.replace table name (Schaefer.Boolean_relation.masks r))
    (Vocabulary.symbols (Structure.vocabulary a));
  table

let solve_horn ?(budget = Budget.unlimited) a b =
  let n = Structure.size a in
  let one = Array.make (max n 1) false in
  let occ = occurrences a in
  let masks = target_masks a b in
  let queue = Queue.create () in
  let set x =
    if not one.(x) then begin
      one.(x) <- true;
      Queue.add x queue
    end
  in
  let ones_mask (t : Tuple.t) =
    let m = ref 0 in
    Array.iteri (fun i x -> if one.(x) then m := !m lor (1 lsl i)) t;
    !m
  in
  let process (name, (t : Tuple.t)) =
    Budget.tick budget;
    let ts = Hashtbl.find masks name in
    let x = ones_mask t in
    Array.iteri
      (fun j el ->
        if not one.(el) then
          let forced =
            List.for_all
              (fun t' -> t' land x <> x || (t' lsr j) land 1 = 1)
              ts
          in
          if forced then set el)
      t
  in
  Structure.iter_tuples (fun name t -> process (name, t)) a;
  while not (Queue.is_empty queue) do
    let x = Queue.pop queue in
    List.iter process occ.(x)
  done;
  let feasible = ref true in
  Structure.iter_tuples
    (fun name t ->
      if !feasible then begin
        let ts = Hashtbl.find masks name in
        let x = ones_mask t in
        if not (List.exists (fun t' -> t' land x = x) ts) then feasible := false
      end)
    a;
  if !feasible then Some (Array.init n (fun x -> if one.(x) then 1 else 0)) else None

let flip_boolean b = Structure.map_universe b ~size:2 (fun v -> 1 - v)

let solve_dual_horn ?budget a b =
  Option.map (Array.map (fun v -> 1 - v)) (solve_horn ?budget a (flip_boolean b))

let solve_bijunctive ?(budget = Budget.unlimited) a b =
  let n = Structure.size a in
  let value = Array.make (max n 1) (-1) in
  let occ = occurrences a in
  let index_of =
    let table = Hashtbl.create 16 in
    List.iter
      (fun (name, arity) ->
        (* A symbol of A's vocabulary with no relation in B acts as the
           empty relation of the declared arity: any fact over it is
           unsatisfiable, which propagation reports as a conflict. *)
        let r =
          match Structure.relation b name with
          | r -> r
          | exception Not_found -> Relation.empty arity
        in
        Hashtbl.replace table name (Relation.index r))
      (Vocabulary.symbols (Structure.vocabulary a));
    table
  in
  let trail = Stack.create () in
  let queue = Queue.create () in
  let conflict = ref false in
  let set x v =
    if value.(x) = -1 then begin
      value.(x) <- v;
      Stack.push x trail;
      Queue.add x queue
    end
    else if value.(x) <> v then conflict := true
  in
  let propagate_element x =
    Budget.tick budget;
    let v = value.(x) in
    List.iter
      (fun (name, (t : Tuple.t)) ->
        if not !conflict then begin
          let ix = Hashtbl.find index_of name in
          let arity = Array.length t in
          for k = 0 to arity - 1 do
            if (not !conflict) && t.(k) = x then begin
              (* Indexed lookup of the tuples compatible with the fixed
                 value instead of filtering the whole relation. *)
              let matching = Relation.Index.matching ix ~pos:k ~value:v in
              if Array.length matching = 0 then conflict := true
              else
                for l = 0 to arity - 1 do
                  if not !conflict then begin
                    let first = matching.(0).(l) in
                    if
                      Array.for_all (fun (t' : Tuple.t) -> t'.(l) = first) matching
                    then set t.(l) first
                  end
                done
            end
          done
        end)
      occ.(x)
  in
  let propagate_from x v =
    conflict := false;
    Queue.clear queue;
    set x v;
    while (not !conflict) && not (Queue.is_empty queue) do
      propagate_element (Queue.pop queue)
    done;
    not !conflict
  in
  let undo_phase () =
    while not (Stack.is_empty trail) do
      value.(Stack.pop trail) <- -1
    done
  in
  let rec phases x =
    if x >= n then Some (Array.sub value 0 n)
    else if value.(x) >= 0 then phases (x + 1)
    else if propagate_from x 0 then begin
      Stack.clear trail;
      phases (x + 1)
    end
    else begin
      undo_phase ();
      if propagate_from x 1 then begin
        Stack.clear trail;
        phases (x + 1)
      end
      else None
    end
  in
  match phases 0 with
  | None -> None
  | Some h ->
    if Homomorphism.is_homomorphism a b h then Some h
    else
      invalid_arg
        "Schaefer_direct.solve_bijunctive: propagation produced a non-homomorphism \
         (is the target really bijunctive?)"

let solve ?budget a b =
  if Structure.size b <> 2 then Not_applicable "target is not Boolean"
  else if Schaefer.Uniform.arity_mismatch a b then
    Not_applicable "vocabulary arity mismatch"
  else
    let lift = function Some h -> Hom h | None -> No_hom in
    (* A constant map is a homomorphism into a 0- or 1-valid target
       unless some fact has no image at all. *)
    let constant v =
      let h = Array.make (Structure.size a) v in
      if Homomorphism.is_homomorphism a b h then Hom h else No_hom
    in
    match Schaefer.Classify.classify b with
    | None -> Not_applicable "target is not a Schaefer structure"
    | Some Schaefer.Classify.Zero_valid -> constant 0
    | Some Schaefer.Classify.One_valid -> constant 1
    | Some Schaefer.Classify.Horn -> lift (solve_horn ?budget a b)
    | Some Schaefer.Classify.Dual_horn -> lift (solve_dual_horn ?budget a b)
    | Some Schaefer.Classify.Bijunctive -> lift (solve_bijunctive ?budget a b)
    | Some Schaefer.Classify.Affine -> Not_applicable "no direct affine algorithm"
