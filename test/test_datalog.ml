open Relational
open Datalog
open Helpers

let check = Alcotest.(check bool)

let check_int = Alcotest.(check int)

(* ------------------------------------------------------------------ *)
(* Program structure                                                    *)
(* ------------------------------------------------------------------ *)

let program_tests =
  [
    Alcotest.test_case "parse the paper's non-2-colorability program" `Quick (fun () ->
        let p = Programs.non_2_colorability in
        Alcotest.(check (list string)) "idbs" [ "P"; "Q" ] (Program.idb_predicates p);
        check_int "width" 4 (Program.width p);
        check "4-datalog" true (Program.is_k_datalog 4 p);
        check "not 3-datalog" false (Program.is_k_datalog 3 p));
    Alcotest.test_case "arity conflicts rejected" `Quick (fun () ->
        check "raises" true
          (try
             ignore (Parser.parse ~goal:"Q" "Q(X) :- P(X). Q(X, Y) :- P(X).");
             false
           with Invalid_argument _ -> true));
    Alcotest.test_case "goal must be an IDB" `Quick (fun () ->
        check "raises" true
          (try
             ignore (Parser.parse ~goal:"E" "Q(X) :- E(X, X).");
             false
           with Invalid_argument _ -> true));
    Alcotest.test_case "comments and facts parse" `Quick (fun () ->
        let p = Parser.parse ~goal:"T" "% a fact\nT(X, X).\n" in
        check_int "one rule" 1 (List.length p.Program.rules));
    Alcotest.test_case "rule variable accounting" `Quick (fun () ->
        let p = Testkit.Workloads.same_generation in
        let r = List.nth p.Program.rules 2 in
        Alcotest.(check (list string)) "head vars" [ "X"; "Y" ] (Program.head_variables r);
        Alcotest.(check (list string))
          "body vars" [ "XP"; "X"; "YP"; "Y" ] (Program.body_variables r));
  ]

(* ------------------------------------------------------------------ *)
(* Evaluation                                                           *)
(* ------------------------------------------------------------------ *)

let eval_tests =
  [
    Alcotest.test_case "transitive closure of a path" `Quick (fun () ->
        let tc = Eval.goal_relation Testkit.Workloads.transitive_closure (path 5) in
        check_int "5*4/2 pairs" 10 (Relation.cardinal tc));
    Alcotest.test_case "transitive closure of a cycle is complete" `Quick (fun () ->
        let tc = Eval.goal_relation Testkit.Workloads.transitive_closure (directed_cycle 4) in
        check_int "all pairs incl. loops" 16 (Relation.cardinal tc));
    Alcotest.test_case "naive and semi-naive agree" `Quick (fun () ->
        List.iter
          (fun g ->
            let naive = Oracle.Naive_datalog.fixpoint Testkit.Workloads.transitive_closure g in
            let semi = fst (Eval.fixpoint_with_stats Testkit.Workloads.transitive_closure g) in
            List.iter2
              (fun (n1, r1) (n2, r2) ->
                Alcotest.(check string) "same idb" n1 n2;
                check "same relation" true (Relation.equal r1 r2))
              naive semi)
          [ path 6; directed_cycle 5; clique 4 ]);
    Alcotest.test_case "same generation on a small tree" `Quick (fun () ->
        (* Parent edges: 0->1, 0->2 (siblings 1,2); 1->3, 2->4 (cousins 3,4). *)
        let v = Vocabulary.create [ ("P", 2) ] in
        let tree =
          Structure.of_relations v ~size:5
            [ ("P", [ [| 0; 1 |]; [| 0; 2 |]; [| 1; 3 |]; [| 2; 4 |] ]) ]
        in
        let sg = Eval.goal_relation Testkit.Workloads.same_generation tree in
        check "siblings" true (Relation.mem sg [| 1; 2 |]);
        check "cousins" true (Relation.mem sg [| 3; 4 |]);
        check "not parent-child" false (Relation.mem sg [| 0; 1 |]));
    Alcotest.test_case "unsafe heads range over the universe" `Quick (fun () ->
        let p = Parser.parse ~goal:"T" "T(X, Y) :- E(X, X)." in
        (* One loop present: head Y is free, so 3 facts on a 3-element universe. *)
        let g = digraph ~size:3 [ (0, 0) ] in
        check_int "3 facts" 3 (Relation.cardinal (Eval.goal_relation p g)));
    Alcotest.test_case "empty-body rules fire unconditionally" `Quick (fun () ->
        let p = Parser.parse ~goal:"T" "T(X, X)." in
        let g = digraph ~size:4 [] in
        check_int "diagonal" 4 (Relation.cardinal (Eval.goal_relation p g)));
    Alcotest.test_case "missing EDB relation treated as empty" `Quick (fun () ->
        let p = Parser.parse ~goal:"T" "T(X) :- F(X, X)." in
        check "no facts" true (Relation.is_empty (Eval.goal_relation p (path 3))));
    Alcotest.test_case "stats count rounds" `Quick (fun () ->
        let _, stats =
          Eval.fixpoint_with_stats Testkit.Workloads.transitive_closure (path 5)
        in
        check "at least 3 rounds" true (stats.Eval.rounds >= 3);
        check_int "derived = tc size" 10 stats.Eval.derived);
  ]

(* ------------------------------------------------------------------ *)
(* Non-2-colorability program                                           *)
(* ------------------------------------------------------------------ *)

let noncol_tests =
  [
    Alcotest.test_case "odd cycles detected" `Quick (fun () ->
        check "C5" true (Eval.goal_holds Programs.non_2_colorability (undirected_cycle 5));
        check "C3" true (Eval.goal_holds Programs.non_2_colorability (undirected_cycle 3)));
    Alcotest.test_case "even cycles and paths accepted" `Quick (fun () ->
        check "C6" false (Eval.goal_holds Programs.non_2_colorability (undirected_cycle 6));
        check "path" false
          (Eval.goal_holds Programs.non_2_colorability
             (undirected ~size:4 [ (0, 1); (1, 2); (2, 3) ])));
    qtest ~count:80 "agrees with homomorphism to K2"
      (QCheck.make
         ~print:(fun edges ->
           String.concat ";" (List.map (fun (u, v) -> Printf.sprintf "%d-%d" u v) edges))
         QCheck.Gen.(
           let* size = 2 -- 6 in
           list_size (0 -- 8) (pair (0 -- (size - 1)) (0 -- (size - 1)))
           >|= List.filter (fun (u, v) -> u <> v)))
      (fun edges ->
        let size = 1 + List.fold_left (fun acc (u, v) -> max acc (max u v)) 0 edges in
        let g = undirected ~size edges in
        Eval.goal_holds Programs.non_2_colorability g = not (Homomorphism.exists g k2));
  ]

(* ------------------------------------------------------------------ *)
(* rho_B (Theorem 4.7(2))                                               *)
(* ------------------------------------------------------------------ *)

let rho_tests =
  [
    Alcotest.test_case "rho_B is k-Datalog" `Quick (fun () ->
        let p = Rho.build k2 ~k:2 in
        check "2-datalog" true (Program.is_k_datalog 2 p);
        let p3 = Rho.build k2 ~k:3 in
        check "3-datalog" true (Program.is_k_datalog 3 p3));
    Alcotest.test_case "rho_{K2} with 3 pebbles decides 2-colorability" `Quick (fun () ->
        check "C5: spoiler wins" true (Rho.spoiler_wins k2 ~k:3 (undirected_cycle 5));
        check "C6: duplicator survives" false (Rho.spoiler_wins k2 ~k:3 (undirected_cycle 6));
        check "C3: spoiler wins" true (Rho.spoiler_wins k2 ~k:3 (undirected_cycle 3)));
    Alcotest.test_case "2 pebbles are too weak for odd cycles" `Quick (fun () ->
        (* With k = 2 the Duplicator survives on every odd cycle even though
           no homomorphism exists: 2-consistency cannot see odd cycles,
           which is why Non-2-Colorability needs more variables. *)
        check "C5 survives k=2" false (Rho.spoiler_wins k2 ~k:2 (undirected_cycle 5));
        check "C3 survives k=2" false (Rho.spoiler_wins k2 ~k:2 (undirected_cycle 3)));
    qtest ~count:40 "rho_B agrees with the pebble game (k=2)"
      (arbitrary_pair ~max_rels:1 ~max_arity:2 ~max_size_a:4 ~max_size_b:2 ~max_tuples:4 ())
      (fun (a, b) ->
        Rho.spoiler_wins b ~k:2 a = Pebble.Game.spoiler_wins ~k:2 a b);
    qtest ~count:15 "rho_B agrees with the pebble game (k=3)"
      (arbitrary_pair ~max_rels:1 ~max_arity:2 ~max_size_a:3 ~max_size_b:2 ~max_tuples:4 ())
      (fun (a, b) ->
        Rho.spoiler_wins b ~k:3 a = Pebble.Game.spoiler_wins ~k:3 a b);
  ]


(* ------------------------------------------------------------------ *)
(* Remark 4.10(2): the Horn k-Datalog program                           *)
(* ------------------------------------------------------------------ *)

let horn_program_tests =
  [
    Alcotest.test_case "program shape for a small Horn target" `Quick (fun () ->
        let b =
          Structure.of_relations (Vocabulary.create [ ("R", 2) ]) ~size:2
            [ ("R", [ [| 0; 0 |]; [| 1; 0 |] ]) ]
        in
        let p = Horn_program.build b in
        check "k-datalog at k = arity" true (Program.is_k_datalog 2 p));
    Alcotest.test_case "non-Horn target rejected" `Quick (fun () ->
        let b =
          Structure.of_relations (Vocabulary.create [ ("R", 2) ]) ~size:2
            [ ("R", [ [| 0; 1 |]; [| 1; 0 |] ]) ]
        in
        check "raises" true
          (try
             ignore (Horn_program.build b);
             false
           with Invalid_argument _ -> true));
    Alcotest.test_case "non-Boolean target rejected" `Quick (fun () ->
        check "raises" true
          (try
             ignore (Horn_program.build (clique 3));
             false
           with Invalid_argument _ -> true));
    qtest ~count:80 "agrees with the direct Horn algorithm and brute force"
      (QCheck.make
         QCheck.Gen.(
           let* b = gen_schaefer_structure Schaefer.Classify.Horn in
           let+ a = gen_source_for b ~max_size:4 ~max_tuples:4 in
           (a, b)))
      (fun (a, b) ->
        let datalog_no = Horn_program.no_homomorphism b a in
        let direct = Oracle.Schaefer_direct.solve_horn a b in
        datalog_no = (direct = None) && datalog_no = not (brute_force_exists a b));
  ]

let reachability_reference_tests =
  [
    qtest ~count:100 "transitive closure equals BFS reachability"
      (QCheck.make
         QCheck.Gen.(
           let* n = 1 -- 6 in
           let+ edges = list_size (0 -- 10) (pair (0 -- (n - 1)) (0 -- (n - 1))) in
           (n, edges)))
      (fun (n, edges) ->
        let g = digraph ~size:n edges in
        let tc = Eval.goal_relation Testkit.Workloads.transitive_closure g in
        (* BFS reference. *)
        let adj = Array.make n [] in
        List.iter (fun (u, v) -> adj.(u) <- v :: adj.(u)) edges;
        let reach u =
          let seen = Array.make n false in
          let queue = Queue.create () in
          List.iter (fun v -> if not seen.(v) then begin seen.(v) <- true; Queue.add v queue end) adj.(u);
          while not (Queue.is_empty queue) do
            let w = Queue.pop queue in
            List.iter
              (fun v -> if not seen.(v) then begin seen.(v) <- true; Queue.add v queue end)
              adj.(w)
          done;
          seen
        in
        let ok = ref true in
        for u = 0 to n - 1 do
          let seen = reach u in
          for v = 0 to n - 1 do
            if Relation.mem tc [| u; v |] <> seen.(v) then ok := false
          done
        done;
        !ok);
  ]

let () =
  Alcotest.run "datalog"
    [
      ("program", program_tests);
      ("eval", eval_tests);
      ("non-2-colorability", noncol_tests);
      ("rho", rho_tests);
      ("horn-program", horn_program_tests);
      ("reachability-reference", reachability_reference_tests);
    ]
