open Relational

let graph_vocab = Vocabulary.create [ ("E", 2) ]

let digraph ~size edges =
  Structure.of_relations graph_vocab ~size
    [ ("E", List.map (fun (u, v) -> [| u; v |]) edges) ]

let undirected ~size edges =
  Structure.of_relations graph_vocab ~size
    [ ("E", List.concat_map (fun (u, v) -> [ [| u; v |]; [| v; u |] ]) edges) ]

let path n = digraph ~size:n (List.init (n - 1) (fun i -> (i, i + 1)))

let directed_cycle n = digraph ~size:n (List.init n (fun i -> (i, (i + 1) mod n)))

let undirected_cycle n = undirected ~size:n (List.init n (fun i -> (i, (i + 1) mod n)))

let clique n =
  let edges = ref [] in
  for i = 0 to n - 1 do
    for j = i + 1 to n - 1 do
      edges := (i, j) :: !edges
    done
  done;
  undirected ~size:n !edges

let k2 = clique 2

let complete_bipartite a b =
  let edges = ref [] in
  for i = 0 to a - 1 do
    for j = 0 to b - 1 do
      edges := (i, a + j) :: !edges
    done
  done;
  undirected ~size:(a + b) !edges

let grid rows cols =
  let id r c = (r * cols) + c in
  let edges = ref [] in
  for r = 0 to rows - 1 do
    for c = 0 to cols - 1 do
      if c + 1 < cols then edges := (id r c, id r (c + 1)) :: !edges;
      if r + 1 < rows then edges := (id r c, id (r + 1) c) :: !edges
    done
  done;
  undirected ~size:(rows * cols) !edges

let product a b =
  let vocab = Structure.vocabulary a in
  if not (Vocabulary.equal vocab (Structure.vocabulary b)) then
    invalid_arg "Workloads.product: vocabulary mismatch";
  let size_b = Structure.size b in
  let encode i j = (i * size_b) + j in
  Structure.fold_tuples
    (fun name ta acc ->
      Relation.fold
        (fun tb acc ->
          let t = Array.init (Array.length ta) (fun p -> encode ta.(p) tb.(p)) in
          Structure.add_tuple acc name t)
        (Structure.relation b name) acc)
    a
    (Structure.create vocab ~size:(Structure.size a * size_b))

let rename_relations a f =
  let symbols = Vocabulary.symbols (Structure.vocabulary a) in
  let vocab = Vocabulary.create (List.map (fun (name, arity) -> (f name, arity)) symbols) in
  Structure.fold_tuples
    (fun name t acc -> Structure.add_tuple acc (f name) t)
    a
    (Structure.create vocab ~size:(Structure.size a))

let staircase_dag n =
  let edges = ref [] in
  for i = 0 to n - 1 do
    for j = i + 1 to n - 1 do
      edges := (i, j) :: !edges
    done
  done;
  digraph ~size:n !edges

let erdos_renyi ~seed ~n ~p =
  let st = Random.State.make [| seed; n |] in
  let edges = ref [] in
  for i = 0 to n - 1 do
    for j = i + 1 to n - 1 do
      if Random.State.float st 1.0 < p then edges := (i, j) :: !edges
    done
  done;
  undirected ~size:n !edges

let random_structure ~seed vocab ~size ~tuples =
  let st = Random.State.make [| seed; size; tuples |] in
  let base = Structure.create vocab ~size in
  List.fold_left
    (fun acc (name, arity) ->
      let rec add acc remaining =
        if remaining = 0 then acc
        else
          let t = Array.init arity (fun _ -> Random.State.int st size) in
          add (Structure.add_tuple acc name t) (remaining - 1)
      in
      add acc tuples)
    base (Vocabulary.symbols vocab)

let pendant_cycle ~seed ~cycle n =
  let st = Random.State.make [| seed; cycle; n |] in
  let tree = List.init n (fun i -> (cycle + i, Random.State.int st (cycle + i))) in
  undirected ~size:(cycle + n)
    (List.init cycle (fun i -> (i, (i + 1) mod cycle)) @ tree)

let random_partial_ktree ~seed ~n ~k ~keep =
  if n < k + 1 then invalid_arg "Workloads.random_partial_ktree: n must exceed k";
  let st = Random.State.make [| seed; n; k |] in
  (* Grow a k-tree: new vertices attach to a random existing k-clique. *)
  let cliques = ref [ Array.init k Fun.id ] in
  let edges = ref [] in
  for i = 0 to k - 1 do
    for j = i + 1 to k - 1 do
      edges := (i, j) :: !edges
    done
  done;
  for v = k to n - 1 do
    let base = List.nth !cliques (Random.State.int st (List.length !cliques)) in
    Array.iter (fun u -> edges := (u, v) :: !edges) base;
    (* New k-cliques: v together with each (k-1)-subset of the base. *)
    for drop = 0 to k - 1 do
      let c =
        Array.of_list
          (v :: List.filteri (fun i _ -> i <> drop) (Array.to_list base))
      in
      cliques := c :: !cliques
    done
  done;
  let kept = List.filter (fun _ -> Random.State.float st 1.0 < keep) !edges in
  undirected ~size:n kept

let close2 op masks =
  let rec fix s =
    let s' =
      List.sort_uniq Int.compare
        (List.fold_left
           (fun acc a -> List.fold_left (fun acc b -> op a b :: acc) acc s)
           s s)
    in
    if List.length s' = List.length s then s' else fix s'
  in
  fix (List.sort_uniq Int.compare masks)

let close3 op masks =
  let rec fix s =
    let s' =
      List.sort_uniq Int.compare
        (List.fold_left
           (fun acc a ->
             List.fold_left
               (fun acc b -> List.fold_left (fun acc c -> op a b c :: acc) acc s)
               acc s)
           s s)
    in
    if List.length s' = List.length s then s' else fix s'
  in
  fix (List.sort_uniq Int.compare masks)

let random_schaefer_target ~seed cls ~arities =
  let st = Random.State.make [| seed; List.length arities |] in
  let vocab =
    Vocabulary.create (List.mapi (fun i a -> (Printf.sprintf "R%d" i, a)) arities)
  in
  let rels =
    List.mapi
      (fun i arity ->
        let count = 1 + Random.State.int st (1 lsl (min arity 3)) in
        let masks = List.init count (fun _ -> Random.State.int st (1 lsl arity)) in
        let masks =
          match (cls : Schaefer.Classify.schaefer_class) with
          | Schaefer.Classify.Zero_valid -> 0 :: masks
          | Schaefer.Classify.One_valid -> ((1 lsl arity) - 1) :: masks
          | Schaefer.Classify.Horn -> close2 Schaefer.Boolean_relation.tuple_and masks
          | Schaefer.Classify.Dual_horn -> close2 Schaefer.Boolean_relation.tuple_or masks
          | Schaefer.Classify.Bijunctive ->
            close3 Schaefer.Boolean_relation.tuple_majority masks
          | Schaefer.Classify.Affine -> close3 Schaefer.Boolean_relation.tuple_xor3 masks
        in
        let r = Schaefer.Boolean_relation.create arity (List.sort_uniq Int.compare masks) in
        (Printf.sprintf "R%d" i, Schaefer.Boolean_relation.tuples r))
      arities
  in
  Structure.of_relations vocab ~size:2 rels

let one_in_three_target =
  Structure.of_relations
    (Vocabulary.create [ ("R", 3) ])
    ~size:2
    [ ("R", [ [| 1; 0; 0 |]; [| 0; 1; 0 |]; [| 0; 0; 1 |] ]) ]

let coloring_target n = clique n

let transitive_closure =
  Datalog.Parser.parse ~goal:"TC"
    {|
      TC(X, Y) :- E(X, Y).
      TC(X, Y) :- TC(X, Z), E(Z, Y).
    |}

let same_generation =
  Datalog.Parser.parse ~goal:"SG"
    {|
      SG(X, X) :- P(X, Y).
      SG(X, X) :- P(Y, X).
      SG(X, Y) :- P(XP, X), SG(XP, YP), P(YP, Y).
    |}

let chain_query ?(pred = "E") n =
  let atoms =
    List.init n (fun i ->
        (pred, [ Printf.sprintf "X%d" i; Printf.sprintf "X%d" (i + 1) ]))
  in
  Cq.Query.make ~head:[ "X0" ] atoms

let random_query ~seed ~predicates ~variables ~atoms =
  let st = Random.State.make [| seed; variables; atoms |] in
  let var () = Printf.sprintf "V%d" (Random.State.int st variables) in
  let preds = Array.of_list predicates in
  let body =
    List.init atoms (fun _ ->
        let name, arity = preds.(Random.State.int st (Array.length preds)) in
        (name, List.init arity (fun _ -> var ())))
  in
  (* Make the query safe by reusing a body variable in the head. *)
  let head =
    match body with
    | (_, v :: _) :: _ -> v
    | _ -> "V0"
  in
  Cq.Query.make ~head:[ head ] body

let random_two_atom_query ~seed ~predicates ~arity ~variables =
  let st = Random.State.make [| seed; predicates; arity; variables |] in
  let var () = Printf.sprintf "V%d" (Random.State.int st variables) in
  let body =
    List.concat
      (List.init predicates (fun i ->
           let occurrences = 1 + Random.State.int st 2 in
           List.init occurrences (fun _ ->
               (Printf.sprintf "P%d" i, List.init arity (fun _ -> var ())))))
  in
  let head = match body with (_, v :: _) :: _ -> v | _ -> "V0" in
  Cq.Query.make ~head:[ head ] body
