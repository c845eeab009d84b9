open Relational

let is_acyclic q =
  let body, _ = Canonical.database_no_head q in
  Treewidth.Hypergraph.is_acyclic body

(* Yannakakis with early projection: each table keeps, per key shared
   with the parent, the deduplicated set of head projections its subtree
   realizes.  A projection is an array with one slot per distinct head
   element, [-1] where the subtree does not reach that element. *)
let evaluate q db =
  let body, index = Canonical.database_no_head q in
  match Treewidth.Hypergraph.join_forest body with
  | None -> invalid_arg "Acyclic.evaluate: query body is cyclic"
  | Some { facts; parent } ->
    let tree = Treewidth.Join_eval.of_forest body ~facts ~parent db in
    let head = Array.map (fun v -> List.assoc v index) q.Query.head in
    let slots = Array.of_list (List.sort_uniq Int.compare (Array.to_list head)) in
    let index_of a x =
      let rec find i =
        if i = Array.length a then -1 else if a.(i) = x then i else find (i + 1)
      in
      find 0
    in
    (* Per node: the row position of each head slot, or [-1]. *)
    let reach =
      Array.map
        (fun vars -> Array.map (index_of vars) slots)
        (Treewidth.Join_eval.vars tree)
    in
    let singleton p =
      let set = Tuple.Table.create 1 in
      Tuple.Table.replace set p ();
      set
    in
    let product s1 s2 =
      let set = Tuple.Table.create (Tuple.Table.length s1 * Tuple.Table.length s2) in
      Tuple.Table.iter
        (fun p1 () ->
          Tuple.Table.iter
            (fun p2 () ->
              let p = Array.mapi (fun k v -> if v >= 0 then v else p2.(k)) p1 in
              Tuple.Table.replace set p ())
            s2)
        s1;
      set
    in
    let store =
      {
        Treewidth.Join_eval.row =
          (fun u r ->
            singleton (Array.map (fun i -> if i < 0 then -1 else r.(i)) reach.(u)));
        join = product;
        add =
          (fun old fresh ->
            Tuple.Table.iter (fun p () -> Tuple.Table.replace old p ()) fresh;
            old);
      }
    in
    let tables, ok = Treewidth.Join_eval.bottom_up tree store in
    if not ok then []
    else
      (* Different roots share no elements; elements in no fact are roots
         of their own ranging over the whole universe. *)
      let answers =
        List.fold_left product
          (singleton (Array.make (Array.length slots) (-1)))
          (Treewidth.Join_eval.root_values tree tables)
      in
      let head_slots = Array.map (index_of slots) head in
      List.sort_uniq Tuple.compare
        (Tuple.Table.fold
           (fun p () acc -> Array.map (fun k -> p.(k)) head_slots :: acc)
           answers [])
