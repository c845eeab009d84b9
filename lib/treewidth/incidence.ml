open Relational

type stats = { width : int; tables : int }

let graph a =
  let n, edges = Structure.incidence_edges a in
  Graph.of_edges ~size:n edges

let decomposition a = Option.get (Elimination.decomposition (graph a))

let treewidth_upper a = Tree_decomposition.width (decomposition a)

(* The {!Join_eval} first-row pass over a tree decomposition of the
   incidence graph.  A value for an element node is a target element; for
   a fact node it is an index into the candidate target tuples of that
   fact. *)
let solve_with_stats a b =
  let n = Structure.size a and m = Structure.size b in
  let facts = Array.of_list (Structure.facts a) in
  let td = decomposition a in
  let cands = Array.map (fun fact -> Array.of_list (Join_eval.candidates b fact)) facts in
  let domain v = if v < n then m else Array.length cands.(v - n) in
  (* In a bag, a fact node's tuple must agree with each element node of
     the bag that the fact mentions. *)
  let checks bag =
    let index x =
      let rec find k =
        if k = Array.length bag then -1 else if bag.(k) = x then k else find (k + 1)
      in
      find 0
    in
    List.filter_map
      (fun k ->
        let v = bag.(k) in
        if v < n then None
        else
          let _, t = facts.(v - n) in
          let pairs =
            List.filter
              (fun (_, p) -> p >= 0)
              (List.mapi (fun i x -> (i, index x)) (Array.to_list t))
          in
          Some
            (fun image ->
              let c = cands.(v - n).(image.(k)) in
              List.for_all (fun (i, p) -> c.(i) = image.(p)) pairs))
      (List.init (Array.length bag) Fun.id)
  in
  let tree = Join_eval.of_bags td ~size:(n + Array.length facts) ~domain ~checks in
  let values, tables = Join_eval.solve tree in
  let stats = { width = Tree_decomposition.width td; tables } in
  match values with
  | None -> (None, stats)
  | Some values ->
    let mapping = Array.sub values 0 n in
    if Homomorphism.is_homomorphism a b mapping then (Some mapping, stats)
    else invalid_arg "Incidence.solve_with_stats: extraction failed (invalid decomposition?)"
