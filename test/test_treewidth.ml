open Relational
open Treewidth
open Helpers

let check = Alcotest.(check bool)

let check_int = Alcotest.(check int)

let cycle_graph n = Graph.of_edges ~size:n (List.init n (fun i -> (i, (i + 1) mod n)))

let path_graph n = Graph.of_edges ~size:n (List.init (n - 1) (fun i -> (i, i + 1)))

let complete_graph n =
  Graph.of_edges ~size:n
    (List.concat (List.init n (fun u -> List.init (n - u - 1) (fun i -> (u, u + i + 1)))))

let grid_graph rows cols =
  let id r c = (r * cols) + c in
  let edges = ref [] in
  for r = 0 to rows - 1 do
    for c = 0 to cols - 1 do
      if c + 1 < cols then edges := (id r c, id r (c + 1)) :: !edges;
      if r + 1 < rows then edges := (id r c, id (r + 1) c) :: !edges
    done
  done;
  Graph.of_edges ~size:(rows * cols) !edges

(* ------------------------------------------------------------------ *)
(* Graph                                                                *)
(* ------------------------------------------------------------------ *)

let graph_tests =
  [
    Alcotest.test_case "edges and degrees" `Quick (fun () ->
        let g = cycle_graph 4 in
        check_int "4 edges" 4 (List.length (Graph.edges g));
        check_int "degree" 2 (List.length (Graph.neighbors g 0));
        check "mem" true (List.mem 1 (Graph.neighbors g 0));
        check "not mem" false (List.mem 2 (Graph.neighbors g 0)));
    Alcotest.test_case "self-loops ignored" `Quick (fun () ->
        check_int "none" 0 (List.length (Graph.edges (Graph.of_edges ~size:2 [ (1, 1) ]))));
  ]

(* ------------------------------------------------------------------ *)
(* Treewidth                                                            *)
(* ------------------------------------------------------------------ *)

let decompose = Elimination.decomposition

let width ?heuristic g = Tree_decomposition.width (Option.get (decompose ?heuristic g))

let gaifman s = Graph.of_edges ~size:(Structure.size s) (Structure.gaifman_edges s)

(* The three conditions of a tree decomposition read straight off the
   definition, against which the linear-time check is compared. *)
let valid_by_definition g (td : Tree_decomposition.t) =
  let nodes = Tree_decomposition.node_count td in
  let adj = Tree_decomposition.adjacency td in
  let holds v t = List.mem v td.bags.(t) in
  let reached start inside =
    let seen = Array.make nodes false in
    let rec visit t =
      if inside t && not seen.(t) then begin
        seen.(t) <- true;
        List.iter visit adj.(t)
      end
    in
    visit start;
    seen
  in
  let all_nodes = List.init nodes Fun.id in
  let is_tree =
    List.length td.tree_edges = nodes - 1
    && (nodes = 0 || Array.for_all Fun.id (reached 0 (fun _ -> true)))
  in
  let connected v =
    match List.filter (holds v) all_nodes with
    | [] -> false
    | start :: _ as holding ->
      let seen = reached start (holds v) in
      List.for_all (fun t -> seen.(t)) holding
  in
  is_tree
  && List.for_all connected (List.init (Graph.size g) Fun.id)
  && List.for_all
       (fun (u, v) -> List.exists (fun t -> holds u t && holds v t) all_nodes)
       (Graph.edges g)

let small_graph =
  QCheck.Gen.(
    let* size = 1 -- 8 in
    let+ edges = list_size (0 -- 14) (pair (0 -- (size - 1)) (0 -- (size - 1))) in
    Graph.of_edges ~size edges)

(* A decomposition from the engine, or a copy with one bag entry dropped
   or moved to another node. *)
let arbitrary_decomposition =
  QCheck.make
    ~print:(fun (g, td) ->
      Format.asprintf "%a@.%a@.%a" Fmt.(list (pair int int)) (Graph.edges g)
        Fmt.(Dump.array (list int)) td.Tree_decomposition.bags
        Fmt.(list (pair int int)) td.tree_edges)
    QCheck.Gen.(
      let* g = small_graph in
      let* heuristic = oneofl [ `Min_fill; `Min_degree ] in
      let td = Option.get (decompose ~heuristic g) in
      let bags = Array.copy td.Tree_decomposition.bags in
      let nodes = Array.length bags in
      let* mutation = 0 -- 2 and* t = 0 -- (nodes - 1) and* t' = 0 -- (nodes - 1) in
      let* i = 0 -- max 0 (List.length bags.(t) - 1) in
      (match (mutation, List.nth_opt bags.(t) i) with
      | 0, _ | _, None -> ()
      | _, Some v ->
        bags.(t) <- List.filteri (fun j _ -> j <> i) bags.(t);
        if mutation = 2 then bags.(t') <- List.sort Int.compare (v :: bags.(t')));
      return (g, { td with bags }))

(* Seeded G(n, p) graphs and partial k-trees, n <= 40 and k <= 4. *)
let arbitrary_seeded_graph =
  QCheck.make
    ~print:(fun (name, _) -> name)
    QCheck.Gen.(
      let* seed = 0 -- 100_000 and* k = 1 -- 4 in
      let* n = (k + 1) -- 40 in
      let* pick = bool in
      if pick then
        let+ p = float_range 0.05 0.5 in
        ( Printf.sprintf "G(%d, %.3f) seed %d" n p seed,
          gaifman (Testkit.Workloads.erdos_renyi ~seed ~n ~p) )
      else
        let+ keep = float_range 0.5 1.0 in
        ( Printf.sprintf "partial %d-tree n=%d keep %.3f seed %d" k n keep seed,
          gaifman (Testkit.Workloads.random_partial_ktree ~seed ~n ~k ~keep) ))

let pinned name g ~bags ~tree =
  Alcotest.test_case name `Quick (fun () ->
      let td = Option.get (decompose g) in
      Alcotest.(check (array (list int))) "bags" bags td.Tree_decomposition.bags;
      Alcotest.(check (list (pair int int))) "tree" tree td.tree_edges)

(* A partial 3-tree (seed 54, n = 14, keep 0.85) of treewidth 3 on which
   min-fill reaches width 4. *)
let min_fill_overshoot =
  Graph.of_edges ~size:14
    [ (0, 1); (0, 2); (0, 3); (0, 5); (0, 6); (0, 9); (0, 10); (0, 11); (1, 2); (1, 4);
      (1, 7); (1, 9); (1, 11); (1, 12); (2, 3); (2, 4); (2, 5); (2, 6); (2, 13); (3, 4);
      (3, 6); (3, 8); (3, 12); (5, 7); (5, 9); (5, 10); (6, 8); (6, 13); (7, 10);
      (11, 12) ]

let treewidth_tests =
  [
    Alcotest.test_case "known exact treewidths" `Quick (fun () ->
        check_int "path" 1 (Elimination.treewidth_exact (path_graph 6));
        check_int "cycle" 2 (Elimination.treewidth_exact (cycle_graph 6));
        check_int "K5" 4 (Elimination.treewidth_exact (complete_graph 5));
        check_int "edgeless" 0 (Elimination.treewidth_exact (Graph.of_edges ~size:4 []));
        check_int "2x4 grid" 2 (Elimination.treewidth_exact (grid_graph 2 4));
        check_int "3x3 grid" 3 (Elimination.treewidth_exact (grid_graph 3 3)));
    Alcotest.test_case "heuristics are upper bounds" `Quick (fun () ->
        List.iter
          (fun g ->
            let exact = Elimination.treewidth_exact g in
            check "min-degree >= exact" true (width ~heuristic:`Min_degree g >= exact);
            check "min-fill >= exact" true (width ~heuristic:`Min_fill g >= exact))
          [ path_graph 5; cycle_graph 7; grid_graph 3 3; complete_graph 4 ]);
    Alcotest.test_case "heuristics are exact on simple families" `Quick (fun () ->
        check_int "cycle via min-fill" 2 (width ~heuristic:`Min_fill (cycle_graph 8));
        check_int "path via min-degree" 1 (width ~heuristic:`Min_degree (path_graph 8)));
    Alcotest.test_case "decomposition validates" `Quick (fun () ->
        List.iter
          (fun g ->
            let td = Option.get (decompose g) in
            check "valid" true (Tree_decomposition.validate_graph g td))
          [ path_graph 6; cycle_graph 5; grid_graph 2 3; complete_graph 4; Graph.of_edges ~size:3 [] ]);
    Alcotest.test_case "bags hold the fill-in neighborhood" `Quick (fun () ->
        (* C4: eliminating 0 joins 1 and 3, so the fill edge 1-3 lies in
           the bag of 1. *)
        let td = Option.get (decompose (cycle_graph 4)) in
        Alcotest.(check (array (list int)))
          "bags" [| [ 0; 1; 3 ]; [ 1; 2; 3 ]; [ 2; 3 ]; [ 3 ] |] td.bags);
    pinned "min-fill bags of the 3x3 grid" (grid_graph 3 3)
      ~bags:
        [| [ 0; 1; 3 ]; [ 1; 3; 4; 5 ]; [ 1; 2; 5 ]; [ 3; 4; 5; 7 ]; [ 4; 5; 7 ]; [ 5; 7; 8 ];
           [ 3; 6; 7 ]; [ 7; 8 ]; [ 8 ] |]
      ~tree:[ (0, 1); (2, 1); (1, 3); (6, 3); (3, 4); (4, 5); (5, 7); (7, 8) ];
    pinned "min-fill bags of C8" (cycle_graph 8)
      ~bags:
        [| [ 0; 1; 7 ]; [ 1; 2; 7 ]; [ 2; 3; 7 ]; [ 3; 4; 7 ]; [ 4; 5; 7 ]; [ 5; 6; 7 ];
           [ 6; 7 ]; [ 7 ] |]
      ~tree:[ (0, 1); (1, 2); (2, 3); (3, 4); (4, 5); (5, 6); (6, 7) ];
    pinned "min-fill bags of a width-4 partial 3-tree" min_fill_overshoot
      ~bags:
        [| [ 0; 1; 3; 11 ]; [ 1; 3; 11; 12 ]; [ 0; 1; 2; 3; 5 ]; [ 3; 11; 12 ]; [ 1; 2; 3; 4 ];
           [ 0; 1; 3; 5 ]; [ 0; 2; 3; 6 ]; [ 1; 5; 7; 10 ]; [ 3; 6; 8 ]; [ 0; 1; 5; 9 ];
           [ 0; 1; 5; 10 ]; [ 11; 12 ]; [ 12 ]; [ 2; 6; 13 ] |]
      ~tree:
        [ (8, 6); (13, 6); (6, 2); (4, 2); (9, 5); (2, 5); (7, 10); (10, 5); (5, 0); (0, 1);
          (1, 3); (3, 11); (11, 12) ];
    Alcotest.test_case "the cap declines past the min-fill width" `Quick (fun () ->
        check_int "treewidth 3" 3 (Elimination.treewidth_exact min_fill_overshoot);
        check "declined at 3" true (decompose ~cap:3 min_fill_overshoot = None);
        check "kept at 4" true (decompose ~cap:4 min_fill_overshoot = decompose min_fill_overshoot));
    qtest ~count:300 "capped decomposition is exact" arbitrary_seeded_graph (fun (_, g) ->
        List.for_all
          (fun heuristic ->
            let full = Option.get (decompose ~heuristic g) in
            let w = Tree_decomposition.width full in
            Tree_decomposition.validate_graph g full
            && (Graph.size g > 14 || w >= Elimination.treewidth_exact g)
            && List.for_all
                 (fun cap ->
                   match decompose ~heuristic ~cap g with
                   | None -> w > cap
                   | Some td -> w <= cap && td = full)
                 (List.init 8 (fun i -> w - 4 + i)))
          [ `Min_fill; `Min_degree ]);
    qtest ~count:100 "random decompositions are valid"
      (QCheck.make small_graph)
      (fun g ->
        Tree_decomposition.validate_graph g (Option.get (decompose ~heuristic:`Min_degree g))
        && Tree_decomposition.validate_graph g (Option.get (decompose ~heuristic:`Min_fill g)));
    qtest ~count:500 "validation matches the definition" arbitrary_decomposition
      (fun (g, td) -> Tree_decomposition.validate_graph g td = valid_by_definition g td);
    Alcotest.test_case "G(1200, 3000) is declined at cap 3" `Quick (fun () ->
        let g1200 =
          Structure_text.parse (In_channel.with_open_text "cli/g1200.st" In_channel.input_all)
        in
        check "declined" true (Td_solver.decompose ~cap:3 g1200 = None));
  ]

(* ------------------------------------------------------------------ *)
(* Td_solver (Theorem 5.4)                                              *)
(* ------------------------------------------------------------------ *)

let td_solver_tests =
  [
    Alcotest.test_case "2-colorability of cycles" `Quick (fun () ->
        check "C6 yes" true (Td_solver.exists (undirected_cycle 6) k2);
        check "C5 no" false (Td_solver.exists (undirected_cycle 5) k2);
        match Td_solver.solve (undirected_cycle 8) k2 with
        | Some h ->
          check "valid" true (Homomorphism.is_homomorphism (undirected_cycle 8) k2 h)
        | None -> Alcotest.fail "expected hom");
    Alcotest.test_case "structure decomposition covers wide tuples" `Quick (fun () ->
        let v = Vocabulary.create [ ("T", 3) ] in
        let s =
          Structure.of_relations v ~size:4 [ ("T", [ [| 0; 1; 2 |]; [| 1; 2; 3 |] ]) ]
        in
        let td = Option.get (Td_solver.decompose s) in
        check "valid" true (Tree_decomposition.validate_structure s td);
        check_int "width 2 (3-cliques in Gaifman graph)" 2 (Tree_decomposition.width td));
    Alcotest.test_case "stats report width" `Quick (fun () ->
        let _, stats = Td_solver.solve_with_stats (undirected_cycle 6) k2 in
        check_int "width 2" 2 stats.Td_solver.width);
    Alcotest.test_case "empty cases" `Quick (fun () ->
        let empty = Structure.create graph_vocab ~size:0 in
        check "empty source" true (Td_solver.exists empty k2);
        check "empty target" false (Td_solver.exists (path 2) empty));
    qtest ~count:250 "agrees with brute force" (arbitrary_pair ())
      (fun (a, b) -> Td_solver.exists a b = brute_force_exists a b);
    qtest ~count:150 "produced mappings are homomorphisms" (arbitrary_pair ())
      (fun (a, b) ->
        match Td_solver.solve a b with
        | None -> true
        | Some h -> Homomorphism.is_homomorphism a b h);
  ]

(* ------------------------------------------------------------------ *)
(* Acyclicity and Yannakakis                                            *)
(* ------------------------------------------------------------------ *)

let acyclic_tests =
  [
    Alcotest.test_case "paths are acyclic, triangles are not" `Quick (fun () ->
        check "path" true (Hypergraph.is_acyclic (path 5));
        check "triangle" false (Hypergraph.is_acyclic (undirected_cycle 3));
        check "C4" false (Hypergraph.is_acyclic (undirected_cycle 4)));
    Alcotest.test_case "a covering wide tuple restores acyclicity" `Quick (fun () ->
        (* Triangle edges plus a 3-ary fact covering all three vertices:
           alpha-acyclic. *)
        let v = Vocabulary.create [ ("E", 2); ("T", 3) ] in
        let s =
          Structure.of_relations v ~size:3
            [ ("E", [ [| 0; 1 |]; [| 1; 2 |]; [| 2; 0 |] ]); ("T", [ [| 0; 1; 2 |] ]) ]
        in
        check "acyclic" true (Hypergraph.is_acyclic s));
    Alcotest.test_case "join forest of a path chains up" `Quick (fun () ->
        match Hypergraph.join_forest (path 4) with
        | None -> Alcotest.fail "expected acyclic"
        | Some f ->
          check_int "three facts" 3 (Array.length f.Hypergraph.facts);
          check_int "one root" 1
            (Array.to_list f.Hypergraph.parent |> List.filter (fun p -> p < 0) |> List.length));
    Alcotest.test_case "yannakakis on paths" `Quick (fun () ->
        check "path into loop" true
          (Hypergraph.solve_acyclic (path 4) (digraph ~size:1 [ (0, 0) ]) <> None);
        check "path5 into path3 fails" false (Hypergraph.solve_acyclic (path 5) (path 3) <> None);
        check "path3 into path5" true (Hypergraph.solve_acyclic (path 3) (path 5) <> None));
    Alcotest.test_case "cyclic source rejected" `Quick (fun () ->
        check "raises" true
          (try
             ignore (Hypergraph.solve_acyclic (undirected_cycle 3) k2);
             false
           with Invalid_argument _ -> true));
    qtest ~count:300 "yannakakis agrees with brute force on acyclic sources"
      (arbitrary_pair ~max_tuples:4 ())
      (fun (a, b) ->
        (not (Hypergraph.is_acyclic a))
        ||
        match Hypergraph.solve_acyclic a b with
        | Some h -> Homomorphism.is_homomorphism a b h && brute_force_exists a b
        | None -> not (brute_force_exists a b));
    qtest ~count:1000 "join forest matches the full-scan GYO oracle"
      (QCheck.make
         ~print:(fun a -> Structure_text.print a)
         QCheck.Gen.(
           let* arities = list_size (1 -- 3) (0 -- 4) in
           let* size = 1 -- 8 in
           let vocab =
             Vocabulary.create (List.mapi (fun i k -> (Printf.sprintf "R%d" i, k)) arities)
           in
           let+ rels =
             flatten_l
               (List.mapi
                  (fun i k ->
                    let+ tuples =
                      list_size (0 -- 6) (fun st -> gen_tuple ~arity:k ~size st)
                    in
                    (Printf.sprintf "R%d" i, tuples))
                  arities)
           in
           Structure.of_relations vocab ~size rels))
      (fun a ->
        Option.map
          (fun (f : Hypergraph.join_forest) -> (f.facts, f.parent))
          (Hypergraph.join_forest a)
        = Oracle.Gyo.join_forest a);
  ]


(* ------------------------------------------------------------------ *)
(* Incidence treewidth and query-decomposition solving                  *)
(* ------------------------------------------------------------------ *)

let incidence_tests =
  [
    Alcotest.test_case "wide tuple: Gaifman blows up, incidence does not" `Quick (fun () ->
        let v = Vocabulary.create [ ("T", 6) ] in
        let s = Structure.of_relations v ~size:6 [ ("T", [ [| 0; 1; 2; 3; 4; 5 |] ]) ] in
        let gaifman =
          Treewidth.Graph.of_edges ~size:6 (Structure.gaifman_edges s)
        in
        check_int "gaifman = clique" 5 (Treewidth.Elimination.treewidth_exact gaifman);
        check "incidence small" true (Treewidth.Incidence.treewidth_upper s <= 1));
    Alcotest.test_case "incidence graph shape" `Quick (fun () ->
        let g = Treewidth.Incidence.graph (path 3) in
        check_int "5 nodes" 5 (Treewidth.Graph.size g);
        check_int "4 edges" 4 (List.length (Treewidth.Graph.edges g)));
    Alcotest.test_case "incidence solver handles wide relations" `Quick (fun () ->
        (* Two overlapping 4-ary facts mapped into a 4-ary target. *)
        let v = Vocabulary.create [ ("T", 4) ] in
        let a =
          Structure.of_relations v ~size:5
            [ ("T", [ [| 0; 1; 2; 3 |]; [| 1; 2; 3; 4 |] ]) ]
        in
        let b =
          Structure.of_relations v ~size:2
            [ ("T", [ [| 0; 1; 0; 1 |]; [| 1; 0; 1; 0 |] ]) ]
        in
        (match fst (Treewidth.Incidence.solve_with_stats a b) with
        | Some h -> check "valid" true (Homomorphism.is_homomorphism a b h)
        | None -> Alcotest.fail "expected hom");
        let b_bad =
          Structure.of_relations v ~size:2 [ ("T", [ [| 0; 1; 0; 1 |] ]) ]
        in
        check "no hom" true (fst (Treewidth.Incidence.solve_with_stats a b_bad) = None));
    qtest ~count:200 "incidence solver agrees with brute force" (arbitrary_pair ())
      (fun (a, b) ->
        match fst (Treewidth.Incidence.solve_with_stats a b) with
        | Some h -> Homomorphism.is_homomorphism a b h && brute_force_exists a b
        | None -> not (brute_force_exists a b));
  ]

(* ------------------------------------------------------------------ *)
(* Counting homomorphisms                                               *)
(* ------------------------------------------------------------------ *)

let count_tests =
  [
    Alcotest.test_case "known counts" `Quick (fun () ->
        check_int "P2 -> K3" 6 (Treewidth.Td_solver.count (path 2) (clique 3));
        check_int "C3 endos" 3
          (Treewidth.Td_solver.count (directed_cycle 3) (directed_cycle 3));
        check_int "C5 -> K2" 0 (Treewidth.Td_solver.count (undirected_cycle 5) k2);
        check_int "C4 -> K2" 2 (Treewidth.Td_solver.count (undirected_cycle 4) k2));
    Alcotest.test_case "empty cases" `Quick (fun () ->
        let empty = Structure.create graph_vocab ~size:0 in
        check_int "empty source" 1 (Treewidth.Td_solver.count empty k2);
        check_int "empty target" 0 (Treewidth.Td_solver.count (path 2) empty));
    (* On acyclic sources the join-forest count must match too: the two
       tree shapes of [Join_eval] checked against each other. *)
    qtest ~count:200 "count agrees with enumeration"
      (arbitrary_pair ~max_size_a:4 ~max_size_b:3 ~max_tuples:4 ())
      (fun (a, b) ->
        let expected = Homomorphism.count a b in
        Treewidth.Td_solver.count a b = expected
        &&
        match Hypergraph.join_forest a with
        | Some { facts; parent } ->
          Join_eval.count (Join_eval.of_forest a ~facts ~parent b) = expected
        | None -> true);
  ]


(* ------------------------------------------------------------------ *)
(* Decomposition rows                                                   *)
(* ------------------------------------------------------------------ *)

(* The rows every node of [tree] yields, with its node, in the order the
   bottom-up pass reads them, and the ticks spent reading them. *)
let trace_rows build =
  let budget = Budget.create ~max_nodes:max_int () in
  let rows = ref [] in
  let store =
    {
      Join_eval.row = (fun u r -> rows := (u, r) :: !rows);
      join = (fun () () -> ());
      add = (fun () () -> ());
    }
  in
  ignore (Join_eval.bottom_up (build budget) store);
  (List.rev !rows, Budget.spent budget)

(* [of_decomposition]'s rows written out with a projection per fact and
   a membership test on the tuple set, which reads no index.  A symbol
   missing from [b] is the empty nullary relation, so its facts hold
   nowhere; one of another arity holds no projection of the fact's own
   length. *)
let reference_rows budget td a b =
  let checks bag =
    let position x =
      let rec find i = if bag.(i) = x then i else find (i + 1) in
      find 0
    in
    List.rev
      (Structure.fold_tuples
         (fun name t acc ->
           if Array.for_all (fun x -> Array.mem x bag) t then
             let rel =
               match Structure.relation b name with
               | r -> r
               | exception Not_found -> Relation.empty 0
             and pos = Array.map position t in
             (fun image ->
               let img = Array.map (fun i -> image.(i)) pos in
               List.exists (Tuple.equal img) (Relation.elements rel))
             :: acc
           else acc)
         a [])
  in
  Join_eval.of_bags ~budget td ~size:(Structure.size a)
    ~domain:(fun _ -> Structure.size b)
    ~checks

let same_rows td a b =
  trace_rows (fun budget -> Join_eval.of_decomposition ~budget td a b)
  = trace_rows (fun budget -> reference_rows budget td a b)

(* A source of up to 6 elements over 1-3 symbols of arity 0-3, and a
   target of up to 4 that may lack a symbol or give it an arity one
   lower or higher. *)
let arbitrary_decomposition_pair =
  let open QCheck.Gen in
  let relation ~size arity =
    if arity = 0 then map (fun p -> if p then [ [||] ] else []) bool
    else list_size (0 -- 6) (array_repeat arity (0 -- (size - 1)))
  in
  let gen =
    let* arities = list_size (1 -- 3) (0 -- 3) in
    let symbols = List.mapi (fun i r -> (Printf.sprintf "R%d" i, r)) arities in
    (* 0: same arity, 1: missing from [b], 2: one higher, 3: one lower. *)
    let* shapes = list_repeat (List.length symbols) (frequencyl [ (5, 0); (1, 1); (1, 2); (1, 3) ]) in
    let symbols_b =
      List.concat
        (List.map2
           (fun (name, r) shape ->
             match shape with
             | 0 -> [ (name, r) ]
             | 1 -> []
             | 2 -> [ (name, r + 1) ]
             | _ -> [ (name, max 0 (r - 1)) ])
           symbols shapes)
    in
    let* size_a = 1 -- 6 and* size_b = 1 -- 4 in
    let side symbols ~size =
      flatten_l (List.map (fun (name, r) -> map (fun ts -> (name, ts)) (relation ~size r)) symbols)
    in
    let* rels_a = side symbols ~size:size_a and* rels_b = side symbols_b ~size:size_b in
    return
      ( Structure.of_relations (Vocabulary.create symbols) ~size:size_a rels_a,
        Structure.of_relations (Vocabulary.create symbols_b) ~size:size_b rels_b )
  in
  QCheck.make
    ~print:(fun (a, b) -> Format.asprintf "A = %a@.B = %a" Structure.pp a Structure.pp b)
    gen

let row_tests =
  [
    Alcotest.test_case "a clashing arity holds no image" `Quick (fun () ->
        (* The target's binary R holds every pair, so a gather that read
           only its first two entries would accept the ternary fact. *)
        let a = Structure.of_relations (Vocabulary.create [ ("R", 3) ]) ~size:3 [ ("R", [ [| 0; 1; 2 |] ]) ] in
        let b =
          Structure.of_relations (Vocabulary.create [ ("R", 2) ]) ~size:2
            [ ("R", [ [| 0; 0 |]; [| 0; 1 |]; [| 1; 0 |]; [| 1; 1 |] ]) ]
        in
        let td = Option.get (Td_solver.decompose a) in
        check "same rows and ticks" true (same_rows td a b);
        check_int "no homomorphism" 0 (Join_eval.count (Join_eval.of_decomposition td a b));
        let missing = Structure.of_relations graph_vocab ~size:2 [] in
        check "missing symbol" true (same_rows td a missing));
    qtest ~count:300 "of_decomposition keeps its rows and ticks" arbitrary_decomposition_pair
      (fun (a, b) -> same_rows (Option.get (Td_solver.decompose a)) a b);
  ]

(* ------------------------------------------------------------------ *)
(* Nice tree decompositions                                             *)
(* ------------------------------------------------------------------ *)

let ghw_tests =
  [
    Alcotest.test_case "single wide fact has ghw 1" `Quick (fun () ->
        let v = Vocabulary.create [ ("T", 5) ] in
        let s = Structure.of_relations v ~size:5 [ ("T", [ [| 0; 1; 2; 3; 4 |] ]) ] in
        Alcotest.(check int) "ghw" 1 (Hypergraph.generalized_hypertree_width_upper s));
    Alcotest.test_case "paths have ghw 1" `Quick (fun () ->
        Alcotest.(check int) "ghw" 1 (Hypergraph.generalized_hypertree_width_upper (path 6)));
    Alcotest.test_case "triangle needs 2" `Quick (fun () ->
        Alcotest.(check int) "ghw" 2
          (Hypergraph.generalized_hypertree_width_upper (undirected_cycle 3)));
    qtest ~count:100 "bounded by treewidth + 1"
      (arbitrary_structure ~max_size:5 ~max_tuples:5 ())
      (fun a ->
        let td = Option.get (decompose (gaifman a)) in
        Hypergraph.generalized_hypertree_width_upper a
        <= Tree_decomposition.width td + 1
        || Structure.size a = 0);
  ]

let () =
  Alcotest.run "treewidth"
    [
      ("graph", graph_tests);
      ("treewidth", treewidth_tests);
      ("td-solver", td_solver_tests);
      ("acyclic", acyclic_tests);
      ("incidence", incidence_tests);
      ("counting", count_tests);
      ("td-rows", row_tests);
      ("ghw", ghw_tests);
    ]
