open Relational
open Datalog

(* Extend [subst] (an association list from variables to elements) so
   the atom's arguments read the tuple [t]; [None] on a clash. *)
let bind subst (args : string array) (t : Tuple.t) =
  let rec go i subst =
    if i = Array.length args then Some subst
    else
      match List.assoc_opt args.(i) subst with
      | Some v -> if v = t.(i) then go (i + 1) subst else None
      | None -> go (i + 1) ((args.(i), t.(i)) :: subst)
  in
  go 0 subst

(* Call [k] on every substitution satisfying the body atoms. *)
let rec iter_matches lookup subst body k =
  match body with
  | [] -> k subst
  | (atom : Program.atom) :: rest ->
    Relation.iter
      (fun t ->
        match bind subst atom.args t with
        | Some subst -> iter_matches lookup subst rest k
        | None -> ())
      (lookup atom.pred (Array.length atom.args))

(* Call [k] on every head instance of [subst], ranging the head
   variables the body left unbound over the universe. *)
let rec iter_heads universe (head : Program.atom) subst vars k =
  match vars with
  | [] -> k (Array.map (fun v -> List.assoc v subst) head.args)
  | v :: vs when List.mem_assoc v subst -> iter_heads universe head subst vs k
  | v :: vs ->
    for e = 0 to universe - 1 do
      iter_heads universe head ((v, e) :: subst) vs k
    done

let fixpoint p structure =
  let universe = Structure.size structure in
  let idbs = Program.idb_predicates p in
  let tables = Hashtbl.create 16 in
  List.iter
    (fun name -> Hashtbl.replace tables name (Relation.empty (Program.predicate_arity p name)))
    idbs;
  let lookup name arity =
    match Hashtbl.find_opt tables name with
    | Some r -> r
    | None -> (
      match Structure.relation structure name with
      | r -> r
      | exception Not_found -> Relation.empty arity)
  in
  (* Fire every rule on the current tables until a round adds nothing. *)
  let changed = ref true in
  while !changed do
    changed := false;
    List.iter
      (fun (r : Program.rule) ->
        let derived = ref [] in
        iter_matches lookup [] r.body (fun subst ->
            iter_heads universe r.head subst (Array.to_list r.head.args) (fun t ->
                derived := t :: !derived));
        let before = Hashtbl.find tables r.head.pred in
        let after = List.fold_left Relation.add before !derived in
        if Relation.cardinal after > Relation.cardinal before then begin
          Hashtbl.replace tables r.head.pred after;
          changed := true
        end)
      p.Program.rules
  done;
  List.map (fun name -> (name, Hashtbl.find tables name)) idbs

let goal_holds p structure =
  not (Relation.is_empty (List.assoc p.Program.goal (fixpoint p structure)))
