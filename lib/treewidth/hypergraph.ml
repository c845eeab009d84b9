open Relational

module Iset = Set.Make (Int)

type join_forest = {
  facts : (string * Tuple.t) array;
  parent : int array;
}

let structure_facts a =
  Array.of_list
    (List.rev (Structure.fold_tuples (fun name t acc -> (name, t) :: acc) a []))

(* GYO reduction.  Repeatedly (a) delete vertices private to a single
   hyperedge, (b) delete a hyperedge whose vertex set is contained in
   another live hyperedge, recording the container as its parent.  The
   hypergraph is acyclic iff at most one hyperedge survives. *)
let join_forest a =
  let facts = structure_facts a in
  let nfacts = Array.length facts in
  let sets = Array.map (fun (_, t) -> Iset.of_list (Tuple.elements t)) facts in
  let alive = Array.make nfacts true in
  let parent = Array.make nfacts (-1) in
  let changed = ref true in
  while !changed do
    changed := false;
    (* (a) Remove private vertices. *)
    let occurrences = Hashtbl.create 64 in
    Array.iteri
      (fun i s ->
        if alive.(i) then
          Iset.iter
            (fun v ->
              Hashtbl.replace occurrences v
                (1 + Option.value ~default:0 (Hashtbl.find_opt occurrences v)))
            s)
      sets;
    Array.iteri
      (fun i s ->
        if alive.(i) then begin
          let s' = Iset.filter (fun v -> Hashtbl.find occurrences v > 1) s in
          if not (Iset.equal s s') then begin
            sets.(i) <- s';
            changed := true
          end
        end)
      sets;
    (* (b) Remove contained hyperedges. *)
    for e = 0 to nfacts - 1 do
      if alive.(e) then begin
        let container = ref (-1) in
        for f = 0 to nfacts - 1 do
          if !container < 0 && f <> e && alive.(f) && Iset.subset sets.(e) sets.(f)
          then container := f
        done;
        if !container >= 0 then begin
          alive.(e) <- false;
          parent.(e) <- !container;
          changed := true
        end
      end
    done
  done;
  let survivors = Array.to_list alive |> List.filter Fun.id |> List.length in
  (* Every removed hyperedge recorded the container it was folded into as
     its parent; removal times order the chains, so this is a forest whose
     roots are the survivors.  This is the textbook GYO join tree. *)
  if survivors > 1 then None else Some { facts; parent }

let is_acyclic a = join_forest a <> None

let solve_with_forest { facts; parent } a b =
  match fst (Join_eval.solve (Join_eval.of_forest a ~facts ~parent b)) with
  | Some h when not (Homomorphism.is_homomorphism a b h) ->
    (* The running-intersection property should make this impossible;
       fail loudly if the forest was somehow degenerate. *)
    invalid_arg "Hypergraph.solve_acyclic: extraction failed"
  | result -> result

let solve_acyclic a b =
  match join_forest a with
  | None -> invalid_arg "Hypergraph.solve_acyclic: source structure is not acyclic"
  | Some forest -> solve_with_forest forest a b

let exists_acyclic a b = solve_acyclic a b <> None

let generalized_hypertree_width_upper a =
  let n = Structure.size a in
  if n = 0 then 0
  else begin
    let g = Graph.of_edges ~size:n (Structure.gaifman_edges a) in
    let td = Elimination.decomposition g in
    let edge_sets =
      List.rev
        (Structure.fold_tuples
           (fun _ t acc -> Iset.of_list (Tuple.elements t) :: acc)
           a [])
    in
    (* Exact minimum cover of a small bag by hyperedges; vertices in no
       hyperedge need a singleton cover each. *)
    let cover_size bag =
      let bag_set = Iset.of_list bag in
      let candidates =
        List.filter (fun s -> not (Iset.is_empty (Iset.inter s bag_set))) edge_sets
        |> List.map (fun s -> Iset.inter s bag_set)
        |> List.sort_uniq Iset.compare
      in
      let coverable = List.fold_left Iset.union Iset.empty candidates in
      let isolated = Iset.cardinal (Iset.diff bag_set coverable) in
      let rec best remaining used bound =
        if Iset.is_empty remaining then min used bound
        else if used + 1 >= bound then bound
        else begin
          (* Branch on an uncovered vertex: some candidate must contain it. *)
          let v = Iset.min_elt remaining in
          List.fold_left
            (fun bound s ->
              if Iset.mem v s then best (Iset.diff remaining s) (used + 1) bound
              else bound)
            bound candidates
        end
      in
      isolated + best (Iset.inter bag_set coverable) 0 max_int
    in
    Array.fold_left
      (fun acc bag -> max acc (cover_size bag))
      0 td.Tree_decomposition.bags
  end
