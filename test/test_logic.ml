open Relational
open Folog
open Helpers

let check = Alcotest.(check bool)

let check_int = Alcotest.(check int)

let satisfying_count s f = List.length (Fo_eval.eval s f).Fo_eval.rows

let edge x y = Formula.Atom ("E", [| x; y |])

(* ------------------------------------------------------------------ *)
(* Formula basics                                                       *)
(* ------------------------------------------------------------------ *)

let formula_tests =
  [
    Alcotest.test_case "free variables and width" `Quick (fun () ->
        let f = Formula.Exists ("x", Formula.And [ edge "x" "y"; edge "y" "z" ]) in
        Alcotest.(check (list string)) "free" [ "y"; "z" ] (Formula.free_variables f);
        check_int "width 3" 3 (Formula.width f);
        check "not sentence" false (Formula.is_sentence f));
    Alcotest.test_case "variable reuse keeps width low" `Quick (fun () ->
        (* exists x y. E(x,y) & exists x. E(y,x) uses 2 names. *)
        let f =
          Formula.Exists
            ("x", Formula.Exists ("y", Formula.And [ edge "x" "y"; Formula.Exists ("x", edge "y" "x") ]))
        in
        check_int "width 2" 2 (Formula.width f);
        check "sentence" true (Formula.is_sentence f);
        check "existential positive" true (Formula.is_existential_positive f));
    Alcotest.test_case "fragment checks" `Quick (fun () ->
        check "negation not EP" false
          (Formula.is_existential_positive (Formula.Not (edge "x" "y")));
        check "forall not EP" false
          (Formula.is_existential_positive (Formula.Forall ("x", edge "x" "x"))));
    Alcotest.test_case "conj simplifies" `Quick (fun () ->
        check "true unit" true (Formula.conj [] = Formula.True);
        check "false wins" true
          (Formula.conj [ edge "x" "y"; Formula.False ] = Formula.False);
        check "singleton" true (Formula.conj [ edge "x" "y" ] = edge "x" "y"));
  ]

(* ------------------------------------------------------------------ *)
(* Evaluation                                                           *)
(* ------------------------------------------------------------------ *)

let eval_tests =
  [
    Alcotest.test_case "atom evaluation" `Quick (fun () ->
        let t = Fo_eval.eval (path 3) (edge "x" "y") in
        check_int "2 rows" 2 (List.length t.Fo_eval.rows));
    Alcotest.test_case "repeated variables select loops" `Quick (fun () ->
        check_int "no loops on path" 0
          (satisfying_count (path 3) (edge "x" "x"));
        check_int "one loop" 1
          (satisfying_count (digraph ~size:2 [ (0, 0); (0, 1) ]) (edge "x" "x")));
    Alcotest.test_case "exists and conjunction: 2-walks" `Quick (fun () ->
        (* Pairs joined by a directed walk of length 2 on the path 0->1->2. *)
        let f = Formula.Exists ("z", Formula.And [ edge "x" "z"; edge "z" "y" ]) in
        check_int "one pair" 1 (satisfying_count (path 3) f));
    Alcotest.test_case "negation" `Quick (fun () ->
        let f = Formula.Not (edge "x" "y") in
        (* 9 pairs minus 2 edges. *)
        check_int "7 rows" 7 (satisfying_count (path 3) f));
    Alcotest.test_case "forall" `Quick (fun () ->
        (* Every node has an out-edge: true on cycles, false on paths. *)
        let f = Formula.Forall ("x", Formula.Exists ("y", edge "x" "y")) in
        check "cycle" true (Fo_eval.holds (directed_cycle 4) f);
        check "path" false (Fo_eval.holds (path 4) f));
    Alcotest.test_case "disjunction with different free variables" `Quick (fun () ->
        let f = Formula.Or [ edge "x" "y"; edge "y" "x" ] in
        (* Path 0->1->2: symmetric closure has 4 pairs. *)
        check_int "4 rows" 4 (satisfying_count (path 3) f));
    Alcotest.test_case "equality" `Quick (fun () ->
        check_int "diagonal" 3 (satisfying_count (path 3) (Formula.Equal ("x", "y")));
        check_int "trivial" 3 (satisfying_count (path 3) (Formula.Equal ("x", "x"))));
    Alcotest.test_case "sentences over the empty structure" `Quick (fun () ->
        let empty = Structure.create graph_vocab ~size:0 in
        check "exists fails" false
          (Fo_eval.holds empty (Formula.Exists ("x", Formula.True)));
        check "forall holds" true
          (Fo_eval.holds empty (Formula.Forall ("x", Formula.False))));
    Alcotest.test_case "free variables rejected in holds" `Quick (fun () ->
        check "raises" true
          (try
             ignore (Fo_eval.holds (path 2) (edge "x" "y"));
             false
           with Invalid_argument _ -> true));
  ]

(* ------------------------------------------------------------------ *)
(* Lemma 5.2 translation                                                *)
(* ------------------------------------------------------------------ *)

let translate_tests =
  [
    Alcotest.test_case "path sentence uses 2 variables" `Quick (fun () ->
        let f = Translate.sentence_of_structure (path 5) in
        check "sentence" true (Formula.is_sentence f);
        check "existential positive" true (Formula.is_existential_positive f);
        check "width <= 2" true (Formula.width f <= 2));
    Alcotest.test_case "cycle sentence uses 3 variables" `Quick (fun () ->
        let f = Translate.sentence_of_structure (undirected_cycle 5) in
        check "width <= 3" true (Formula.width f <= 3));
    Alcotest.test_case "holds_via_fo decides 2-colorability" `Quick (fun () ->
        check "C6" true (Translate.holds_via_fo (undirected_cycle 6) k2);
        check "C5" false (Translate.holds_via_fo (undirected_cycle 5) k2);
        check "C7" false (Translate.holds_via_fo (undirected_cycle 7) k2));
    Alcotest.test_case "invalid decomposition rejected" `Quick (fun () ->
        let td =
          { Treewidth.Tree_decomposition.bags = [| [ 0 ] |]; tree_edges = [] }
        in
        check "raises" true
          (try
             ignore (Translate.sentence_of_structure ~decomposition:td (path 3));
             false
           with Invalid_argument _ -> true));
    qtest ~count:150 "translation agrees with brute force"
      (arbitrary_pair ~max_size_a:4 ~max_size_b:3 ~max_tuples:4 ())
      (fun (a, b) -> Translate.holds_via_fo a b = brute_force_exists a b);
    qtest ~count:100 "translation agrees with the treewidth DP"
      (arbitrary_pair ~max_size_a:4 ~max_size_b:3 ~max_tuples:4 ())
      (fun (a, b) -> Translate.holds_via_fo a b = Treewidth.Td_solver.exists a b);
    qtest ~count:100 "width bound of Lemma 5.2"
      (arbitrary_structure ~max_size:5 ~max_tuples:5 ())
      (fun a ->
        let td = Option.get (Treewidth.Td_solver.decompose a) in
        let f = Translate.sentence_of_structure ~decomposition:td a in
        Formula.is_existential_positive f
        && Formula.width f <= Treewidth.Tree_decomposition.width td + 1);
  ]


(* ------------------------------------------------------------------ *)
(* Least fixed-point logic                                              *)
(* ------------------------------------------------------------------ *)

let lfp_tests =
  [
    Alcotest.test_case "transitive closure as an LFP system" `Quick (fun () ->
        let tc =
          Lfp.make
            [
              {
                Lfp.name = "TC";
                vars = [| "x"; "y" |];
                body =
                  Formula.Or
                    [
                      edge "x" "y";
                      Formula.Exists
                        ("z", Formula.And [ Formula.Atom ("TC", [| "x"; "z" |]); edge "z" "y" ]);
                    ];
              };
            ]
        in
        let result = List.assoc "TC" (fst (Lfp.fixpoint_with_stats (path 4) tc)) in
        check_int "6 pairs" 6 (Relation.cardinal result);
        let datalog =
          Datalog.Eval.goal_relation Testkit.Workloads.transitive_closure (path 4)
        in
        check "matches datalog" true (Relation.equal result datalog));
    Alcotest.test_case "stages are counted" `Quick (fun () ->
        let tc =
          Lfp.make
            [
              {
                Lfp.name = "T";
                vars = [| "x"; "y" |];
                body =
                  Formula.Or
                    [
                      edge "x" "y";
                      Formula.Exists
                        ("z", Formula.And [ Formula.Atom ("T", [| "x"; "z" |]); edge "z" "y" ]);
                    ];
              };
            ]
        in
        let _, stats = Lfp.fixpoint_with_stats (path 6) tc in
        check "at least 4 stages" true (stats.Lfp.stages >= 4));
    Alcotest.test_case "negative occurrences rejected" `Quick (fun () ->
        check "raises" true
          (try
             ignore
               (Lfp.make
                  [
                    {
                      Lfp.name = "T";
                      vars = [| "x" |];
                      body = Formula.Not (Formula.Atom ("T", [| "x" |]));
                    };
                  ]);
             false
           with Invalid_argument _ -> true));
    Alcotest.test_case "stray free variables rejected" `Quick (fun () ->
        check "raises" true
          (try
             ignore (Lfp.make [ { Lfp.name = "T"; vars = [| "x" |]; body = edge "x" "y" } ]);
             false
           with Invalid_argument _ -> true));
    Alcotest.test_case "duplicate names rejected" `Quick (fun () ->
        check "raises" true
          (try
             ignore
               (Lfp.make
                  [
                    { Lfp.name = "T"; vars = [| "x" |]; body = Formula.True };
                    { Lfp.name = "T"; vars = [| "x" |]; body = Formula.True };
                  ]);
             false
           with Invalid_argument _ -> true));
  ]

(* ------------------------------------------------------------------ *)
(* Theorem 4.7(1): the LFP game sentence                                *)
(* ------------------------------------------------------------------ *)

let game_sentence_tests =
  [
    Alcotest.test_case "odd vs even cycles at k=3" `Quick (fun () ->
        check "C5 spoiler" true (Game_sentence.spoiler_wins ~k:3 (undirected_cycle 5) k2);
        check "C4 duplicator" false (Game_sentence.spoiler_wins ~k:3 (undirected_cycle 4) k2));
    Alcotest.test_case "2 pebbles stay too weak" `Quick (fun () ->
        check "C5 duplicator at k=2" false
          (Game_sentence.spoiler_wins ~k:2 (undirected_cycle 5) k2));
    Alcotest.test_case "empty target" `Quick (fun () ->
        let empty = Structure.create graph_vocab ~size:0 in
        check "spoiler" true (Game_sentence.spoiler_wins ~k:2 (path 2) empty));
    qtest ~count:25 "LFP sentence agrees with the combinatorial game (k=2)"
      (arbitrary_pair ~max_rels:1 ~max_arity:2 ~max_size_a:3 ~max_size_b:2 ~max_tuples:4 ())
      (fun (a, b) ->
        Game_sentence.spoiler_wins ~k:2 a b = Pebble.Game.spoiler_wins ~k:2 a b);
  ]


(* ------------------------------------------------------------------ *)
(* FO parser                                                            *)
(* ------------------------------------------------------------------ *)

let parser_tests =
  [
    Alcotest.test_case "parse a quantified formula" `Quick (fun () ->
        let f = Fo_parser.parse "exists x. exists y. E(x, y) & ~(x = y)" in
        check "sentence" true (Formula.is_sentence f);
        check "holds on path" true (Fo_eval.holds (path 3) f));
    Alcotest.test_case "precedence: & binds tighter than |" `Quick (fun () ->
        let f = Fo_parser.parse "false & false | true" in
        check "true" true (Fo_eval.holds (path 2) f));
    Alcotest.test_case "quantifier scope extends right" `Quick (fun () ->
        let f = Fo_parser.parse "forall x. E(x, x) | true" in
        (* forall x. (E(x,x) | true) is valid. *)
        check "valid" true (Fo_eval.holds (path 3) f));
    Alcotest.test_case "errors rejected" `Quick (fun () ->
        let rejected s =
          match Fo_parser.parse s with _ -> false | exception Fo_parser.Parse_error _ -> true
        in
        check "dangling" true (rejected "E(x,");
        check "empty" true (rejected "");
        check "trailing" true (rejected "true true"));
    Alcotest.test_case "round trip through printer" `Quick (fun () ->
        let f = Fo_parser.parse "exists x. (E(x, x) | ~(exists y. E(x, y)))" in
        let printed = Format.asprintf "%a" Formula.pp f in
        match Fo_parser.parse printed with
        | g -> check "same truth" true (Fo_eval.holds (directed_cycle 3) f = Fo_eval.holds (directed_cycle 3) g)
        | exception Fo_parser.Parse_error _ -> Alcotest.fail ("printer output unparseable: " ^ printed));
  ]

(* ------------------------------------------------------------------ *)
(* Reference semantics: assignment-by-assignment evaluation             *)
(* ------------------------------------------------------------------ *)

let rec naive_eval structure env (f : Formula.t) =
  let value v =
    match List.assoc_opt v env with
    | Some e -> e
    | None -> invalid_arg ("naive_eval: unbound variable " ^ v)
  in
  match f with
  | Formula.True -> true
  | Formula.False -> false
  | Formula.Atom (r, args) -> (
    match Structure.relation structure r with
    | rel -> Relation.mem rel (Array.map value args)
    | exception Not_found -> false)
  | Formula.Equal (x, y) -> value x = value y
  | Formula.Not g -> not (naive_eval structure env g)
  | Formula.And gs -> List.for_all (naive_eval structure env) gs
  | Formula.Or gs -> List.exists (naive_eval structure env) gs
  | Formula.Exists (x, g) ->
    List.exists
      (fun e -> naive_eval structure ((x, e) :: env) g)
      (Structure.universe structure)
  | Formula.Forall (x, g) ->
    List.for_all
      (fun e -> naive_eval structure ((x, e) :: env) g)
      (Structure.universe structure)

let gen_formula =
  QCheck.Gen.(
    let var = oneofl [ "x"; "y"; "z" ] in
    let atom =
      oneof
        [
          (let* a = var in
           let+ b = var in
           Formula.Atom ("E", [| a; b |]));
          (var >|= fun a -> Formula.Atom ("P", [| a |]));
          (let* a = var in
           let+ b = var in
           Formula.Equal (a, b));
          return Formula.True;
          return Formula.False;
        ]
    in
    let rec formula depth =
      if depth = 0 then atom
      else
        oneof
          [
            atom;
            (formula (depth - 1) >|= fun f -> Formula.Not f);
            (let* f = formula (depth - 1) in
             let+ g = formula (depth - 1) in
             Formula.And [ f; g ]);
            (let* f = formula (depth - 1) in
             let+ g = formula (depth - 1) in
             Formula.Or [ f; g ]);
            (let* v = var in
             let+ f = formula (depth - 1) in
             Formula.Exists (v, f));
            (let* v = var in
             let+ f = formula (depth - 1) in
             Formula.Forall (v, f));
          ]
    in
    let* f = formula 4 in
    (* Close the formula. *)
    return (List.fold_left (fun acc v -> Formula.Exists (v, acc)) f (Formula.free_variables f)))

let fo_vocab = Vocabulary.create [ ("E", 2); ("P", 1) ]

let gen_fo_structure =
  QCheck.Gen.(
    let* size = 1 -- 3 in
    let* edges = list_size (0 -- 5) (pair (0 -- (size - 1)) (0 -- (size - 1))) in
    let+ points = list_size (0 -- 2) (0 -- (size - 1)) in
    Structure.of_relations fo_vocab ~size
      [
        ("E", List.map (fun (u, v) -> [| u; v |]) edges);
        ("P", List.map (fun u -> [| u |]) points);
      ])

let reference_tests =
  [
    qtest ~count:400 "table evaluation matches assignment semantics"
      (QCheck.make
         ~print:(fun (f, s) ->
           Format.asprintf "%a@.on@.%a" Formula.pp f Structure.pp s)
         QCheck.Gen.(
           let* f = gen_formula in
           let+ s = gen_fo_structure in
           (f, s)))
      (fun (f, s) ->
        (* The generator closes formulas, but closing binds in free-var
           order; tolerate leftover frees by skipping them. *)
        if not (Formula.is_sentence f) then true
        else Fo_eval.holds s f = naive_eval s [] f);
  ]

let () =
  Alcotest.run "folog"
    [
      ("formula", formula_tests);
      ("eval", eval_tests);
      ("translate", translate_tests);
      ("lfp", lfp_tests);
      ("game-sentence", game_sentence_tests);
      ("fo-parser", parser_tests);
      ("reference-semantics", reference_tests);
    ]
