open Relational
open Treewidth
open Helpers

let check = Alcotest.(check bool)

let check_int = Alcotest.(check int)

let cycle_graph n = Graph.of_edges ~size:n (List.init n (fun i -> (i, (i + 1) mod n)))

let path_graph n = Graph.of_edges ~size:n (List.init (n - 1) (fun i -> (i, i + 1)))

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
        check_int "4 edges" 4 (Graph.edge_count g);
        check_int "degree" 2 (Graph.degree g 0);
        check "mem" true (Graph.mem_edge g 0 1);
        check "not mem" false (Graph.mem_edge g 0 2));
    Alcotest.test_case "self-loops ignored" `Quick (fun () ->
        check_int "none" 0 (Graph.edge_count (Graph.of_edges ~size:2 [ (1, 1) ])));
    Alcotest.test_case "eliminate_vertex fills neighborhood" `Quick (fun () ->
        let g = path_graph 3 in
        let g' = Graph.eliminate_vertex g 1 in
        check "fill edge" true (Graph.mem_edge g' 0 2);
        check_int "vertex gone" 0 (Graph.degree g' 1));
    Alcotest.test_case "components" `Quick (fun () ->
        let g = Graph.of_edges ~size:5 [ (0, 1); (3, 4) ] in
        Alcotest.(check (list (list int)))
          "three components" [ [ 0; 1 ]; [ 2 ]; [ 3; 4 ] ] (Graph.components g));
    Alcotest.test_case "is_clique" `Quick (fun () ->
        check "K3" true (Graph.is_clique (Graph.complete 3) [ 0; 1; 2 ]);
        check "path not" false (Graph.is_clique (path_graph 3) [ 0; 1; 2 ]));
  ]

(* ------------------------------------------------------------------ *)
(* Treewidth                                                            *)
(* ------------------------------------------------------------------ *)

let treewidth_tests =
  [
    Alcotest.test_case "known exact treewidths" `Quick (fun () ->
        check_int "path" 1 (Elimination.treewidth_exact (path_graph 6));
        check_int "cycle" 2 (Elimination.treewidth_exact (cycle_graph 6));
        check_int "K5" 4 (Elimination.treewidth_exact (Graph.complete 5));
        check_int "edgeless" 0 (Elimination.treewidth_exact (Graph.create 4));
        check_int "2x4 grid" 2 (Elimination.treewidth_exact (grid_graph 2 4));
        check_int "3x3 grid" 3 (Elimination.treewidth_exact (grid_graph 3 3)));
    Alcotest.test_case "heuristics are upper bounds" `Quick (fun () ->
        List.iter
          (fun g ->
            let exact = Elimination.treewidth_exact g in
            check "min-degree >= exact" true
              (Elimination.width_of_order g (Elimination.min_degree_order g) >= exact);
            check "min-fill >= exact" true
              (Elimination.width_of_order g (Elimination.min_fill_order g) >= exact))
          [ path_graph 5; cycle_graph 7; grid_graph 3 3; Graph.complete 4 ]);
    Alcotest.test_case "heuristics are exact on simple families" `Quick (fun () ->
        check_int "cycle via min-fill" 2
          (Elimination.width_of_order (cycle_graph 8)
             (Elimination.min_fill_order (cycle_graph 8)));
        check_int "path via min-degree" 1
          (Elimination.width_of_order (path_graph 8)
             (Elimination.min_degree_order (path_graph 8))));
    Alcotest.test_case "decomposition validates" `Quick (fun () ->
        List.iter
          (fun g ->
            let td = Elimination.decomposition g in
            check "valid" true (Tree_decomposition.validate_graph g td))
          [ path_graph 6; cycle_graph 5; grid_graph 2 3; Graph.complete 4; Graph.create 3 ]);
    Alcotest.test_case "bad order rejected" `Quick (fun () ->
        check "raises" true
          (try
             ignore (Tree_decomposition.of_elimination_order (path_graph 3) [ 0; 1 ]);
             false
           with Invalid_argument _ -> true));
    Alcotest.test_case "decomposition width equals order width" `Quick (fun () ->
        let g = grid_graph 2 4 in
        let order = Elimination.min_fill_order g in
        check_int "match"
          (Elimination.width_of_order g order)
          (Tree_decomposition.width (Tree_decomposition.of_elimination_order g order)));
    qtest ~count:100 "random decompositions are valid"
      (QCheck.make
         QCheck.Gen.(
           let* size = 1 -- 7 in
           let+ edges = list_size (0 -- 10) (pair (0 -- (size - 1)) (0 -- (size - 1))) in
           Graph.of_edges ~size edges))
      (fun g ->
        Tree_decomposition.validate_graph g
          (Elimination.decomposition ~heuristic:`Min_degree g)
        && Tree_decomposition.validate_graph g
             (Elimination.decomposition ~heuristic:`Min_fill g));
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
        let td = Td_solver.decompose s in
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
          (Hypergraph.exists_acyclic (path 4) (digraph ~size:1 [ (0, 0) ]));
        check "path5 into path3 fails" false (Hypergraph.exists_acyclic (path 5) (path 3));
        check "path3 into path5" true (Hypergraph.exists_acyclic (path 3) (path 5)));
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
        check_int "4 edges" 4 (Treewidth.Graph.edge_count g));
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
        (match Treewidth.Incidence.solve a b with
        | Some h -> check "valid" true (Homomorphism.is_homomorphism a b h)
        | None -> Alcotest.fail "expected hom");
        let b_bad =
          Structure.of_relations v ~size:2 [ ("T", [ [| 0; 1; 0; 1 |] ]) ]
        in
        check "no hom" true (Treewidth.Incidence.solve a b_bad = None));
    qtest ~count:200 "incidence solver agrees with brute force" (arbitrary_pair ())
      (fun (a, b) ->
        match Treewidth.Incidence.solve a b with
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
        let g = Graph.of_edges ~size:(Structure.size a) (Structure.gaifman_edges a) in
        let td = Elimination.decomposition g in
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
      ("ghw", ghw_tests);
    ]
