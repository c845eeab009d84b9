open Relational
open Treewidth

let sentence_of_structure ?decomposition a =
  let td =
    match decomposition with
    | Some td -> td
    | None -> Option.get (Td_solver.decompose a)
  in
  if not (Tree_decomposition.validate_structure a td) then
    invalid_arg "Translate.sentence_of_structure: invalid decomposition";
  let bags =
    Array.map (List.sort_uniq Int.compare) td.Tree_decomposition.bags
  in
  let nodes = Tree_decomposition.node_count td in
  if Structure.size a = 0 then Formula.True
  else begin
    let adj = Tree_decomposition.adjacency td in
    (* Assign every fact to the first node (in DFS preorder) whose bag
       contains all its elements. *)
    let preorder = ref [] in
    let parent = Array.make nodes (-1) in
    let rec dfs u p =
      parent.(u) <- p;
      preorder := u :: !preorder;
      List.iter (fun v -> if v <> p then dfs v u) adj.(u)
    in
    dfs 0 (-1);
    let preorder = List.rev !preorder in
    let facts = Structure.facts a in
    let atoms_of = Array.make nodes [] in
    List.iter
      (fun (name, t) ->
        let elems = Tuple.elements t in
        let node =
          List.find (fun u -> List.for_all (fun x -> List.mem x bags.(u)) elems) preorder
        in
        atoms_of.(node) <- (name, t) :: atoms_of.(node))
      facts;
    (* Variable pool of size width+1; elements alive in the current bag keep
       their name down the tree. *)
    let pool_size =
      Array.fold_left (fun acc bag -> max acc (List.length bag)) 1 bags
    in
    let pool = List.init pool_size (Printf.sprintf "x%d") in
    let rec build u naming =
      (* [naming]: assoc element -> variable name, defined on the bag of the
         parent (restricted here to the shared part). *)
      let bag = bags.(u) in
      let inherited = List.filter (fun (x, _) -> List.mem x bag) naming in
      let used = List.map snd inherited in
      let fresh_names = List.filter (fun v -> not (List.mem v used)) pool in
      let new_elements =
        List.filter (fun x -> not (List.mem_assoc x inherited)) bag
      in
      let added = List.map2 (fun x v -> (x, v)) new_elements
          (List.filteri (fun i _ -> i < List.length new_elements) fresh_names)
      in
      let naming_here = inherited @ added in
      let name x = List.assoc x naming_here in
      let atoms =
        List.map
          (fun (rel, t) -> Formula.Atom (rel, Array.map name t))
          atoms_of.(u)
      in
      let children =
        List.filter (fun v -> v <> parent.(u)) adj.(u)
        |> List.map (fun v -> build v naming_here)
      in
      Formula.exists_many (List.map snd added) (Formula.conj (atoms @ children))
    in
    build 0 []
  end

let holds_via_fo a b =
  if Structure.size a = 0 then true
  else Fo_eval.holds b (sentence_of_structure a)
