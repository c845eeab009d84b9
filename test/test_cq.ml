open Relational
open Cq
open Helpers

let check = Alcotest.(check bool)

let check_int = Alcotest.(check int)

let q s = Parser.parse s

(* ------------------------------------------------------------------ *)
(* Parser and Query basics                                              *)
(* ------------------------------------------------------------------ *)

let parser_tests =
  [
    Alcotest.test_case "round trip through printer" `Quick (fun () ->
        let query = q "Q(X1, X2) :- P(X1, Z1, Z2), R(Z2, Z3), R(Z3, X2)." in
        check "reparse equal" true (Query.equal query (q (Query.to_string query))));
    Alcotest.test_case "paper's example query parses" `Quick (fun () ->
        let query = q "Q(X1, X2) :- P(X1, Z1, Z2), R(Z2, Z3), R(Z3, X2)." in
        check_int "arity" 2 (Query.arity query);
        check_int "atoms" 3 (Query.atom_count query);
        Alcotest.(check (list string))
          "vars" [ "X1"; "X2"; "Z1"; "Z2"; "Z3" ] (Query.variables query);
        Alcotest.(check (list string))
          "existential" [ "Z1"; "Z2"; "Z3" ] (Query.existential_variables query));
    Alcotest.test_case "boolean query without parens" `Quick (fun () ->
        let query = q "Q :- E(X, Y), E(Y, X)" in
        check_int "arity" 0 (Query.arity query);
        check "safe" true (Query.is_safe query));
    Alcotest.test_case "unsafe head variable detected" `Quick (fun () ->
        check "unsafe" false (Query.is_safe (q "Q(W) :- E(X, Y).")));
    Alcotest.test_case "arity conflicts rejected" `Quick (fun () ->
        check "raises" true
          (try
             ignore (q "Q(X) :- P(X), P(X, X).");
             false
           with Parser.Parse_error _ -> true));
    Alcotest.test_case "reserved predicate rejected" `Quick (fun () ->
        check "raises" true
          (try
             ignore (q "Q(X) :- __dist0(X).");
             false
           with Parser.Parse_error _ -> true));
    Alcotest.test_case "garbage rejected" `Quick (fun () ->
        let rejected s =
          match Parser.parse s with _ -> false | exception Parser.Parse_error _ -> true
        in
        check "none" true (rejected "Q(X) :- ");
        check "none2" true (rejected "Q(X) P(X)");
        check "none3" true (rejected "Q(X) :- P(X). extra"));
    Alcotest.test_case "two-atom recognition" `Quick (fun () ->
        check "yes" true (Query.is_two_atom (q "Q(X) :- P(X, Y), P(Y, X), R(X, X)."));
        check "no" false (Query.is_two_atom (q "Q(X) :- P(X, Y), P(Y, Z), P(Z, X).")));
    Alcotest.test_case "norm counts variables and argument slots" `Quick (fun () ->
        check_int "norm" (3 + 4) (Query.norm (q "Q(X) :- P(X, Y), P(Y, Z).")));
  ]

(* ------------------------------------------------------------------ *)
(* Canonical databases                                                  *)
(* ------------------------------------------------------------------ *)

let canonical_tests =
  [
    Alcotest.test_case "canonical database of the paper's example" `Quick (fun () ->
        let query = q "Q(X1, X2) :- P(X1, Z1, Z2), R(Z2, Z3), R(Z3, X2)." in
        let db, index = Canonical.database query in
        check_int "5 elements" 5 (Structure.size db);
        check_int "3 body facts + 2 markers" 5 (Structure.total_tuples db);
        let e v = List.assoc v index in
        check "P fact" true (Structure.mem_tuple db "P" [| e "X1"; e "Z1"; e "Z2" |]);
        check "marker 0" true (Structure.mem_tuple db (Canonical.dist_pred 0) [| e "X1" |]);
        check "marker 1" true (Structure.mem_tuple db (Canonical.dist_pred 1) [| e "X2" |]));
    Alcotest.test_case "database_no_head has no markers" `Quick (fun () ->
        let db, _ = Canonical.database_no_head (q "Q(X) :- E(X, Y).") in
        check "no marker" false (Vocabulary.mem (Structure.vocabulary db) (Canonical.dist_pred 0)));
    Alcotest.test_case "boolean query of a structure" `Quick (fun () ->
        let bq = Canonical.boolean_query (path 3) in
        check_int "two atoms" 2 (Query.atom_count bq);
        check_int "boolean" 0 (Query.arity bq));
    Alcotest.test_case "to_query inverts database" `Quick (fun () ->
        let query = q "Q(X, Y) :- E(X, Z), E(Z, Y)." in
        let db, index = Canonical.database query in
        let names i = fst (List.find (fun (_, j) -> j = i) index) in
        let back = Canonical.to_query ~arity:2 ~names db in
        check "equal" true (Query.equal query back));
  ]

(* ------------------------------------------------------------------ *)
(* Containment                                                          *)
(* ------------------------------------------------------------------ *)

let containment_tests =
  [
    Alcotest.test_case "longer path query is contained in shorter" `Quick (fun () ->
        (* Q1: path of length 2 from X to Y; Q2: an outgoing edge from X. *)
        let q1 = q "Q(X) :- E(X, Z), E(Z, W)." in
        let q2 = q "Q(X) :- E(X, Z)." in
        check "q1 in q2" true (Containment.contained q1 q2);
        check "q2 not in q1" false (Containment.contained q2 q1));
    Alcotest.test_case "triangle implies cycle-walk queries" `Quick (fun () ->
        let tri = q "Q :- E(X, Y), E(Y, Z), E(Z, X)." in
        let hexa = q "Q :- E(A, B), E(B, C), E(C, D), E(D, E1), E(E1, F), E(F, A)." in
        (* A triangle contains a closed walk of length 6, so tri ⊆ hexa. *)
        check "tri in hexa" true (Containment.contained tri hexa);
        check "hexa not in tri" false (Containment.contained hexa tri));
    Alcotest.test_case "head order matters" `Quick (fun () ->
        let q1 = q "Q(X, Y) :- E(X, Y)." in
        let q2 = q "Q(Y, X) :- E(X, Y)." in
        check "not contained" false (Containment.contained q1 q2));
    Alcotest.test_case "redundant self-join is equivalent" `Quick (fun () ->
        let q1 = q "Q(X) :- E(X, Y)." in
        let q2 = q "Q(X) :- E(X, Y), E(X, Z)." in
        check "equivalent" true (Containment.equivalent q1 q2));
    Alcotest.test_case "arity mismatch rejected" `Quick (fun () ->
        check "raises" true
          (try
             ignore (Containment.contained (q "Q(X) :- E(X, X).") (q "Q :- E(X, X)."));
             false
           with Invalid_argument _ -> true));
    Alcotest.test_case "witness is a correct variable mapping" `Quick (fun () ->
        let q1 = q "Q(X) :- E(X, Z), E(Z, W)." in
        let q2 = q "Q(X) :- E(X, Z)." in
        match Containment.containment_witness q1 q2 with
        | None -> Alcotest.fail "expected witness"
        | Some w ->
          Alcotest.(check string) "head fixed" "X" (List.assoc "X" w);
          Alcotest.(check string) "Z maps into q1" "Z" (List.assoc "Z" w));
    Alcotest.test_case "evaluation: outgoing-edge query on a path" `Quick (fun () ->
        let answers = Containment.evaluate (q "Q(X) :- E(X, Y).") (path 3) in
        check_int "two answers" 2 (List.length answers));
    Alcotest.test_case "evaluation: triangle query on cliques" `Quick (fun () ->
        let tri = q "Q :- E(X, Y), E(Y, Z), E(Z, X)." in
        check_int "K3 has triangle" 1 (List.length (Containment.evaluate tri (clique 3)));
        check_int "K2 has none" 0 (List.length (Containment.evaluate tri (clique 2))));
    Alcotest.test_case "hom A->B iff QB contained in QA" `Quick (fun () ->
        let qa = Canonical.boolean_query (undirected_cycle 5) in
        let qb = Canonical.boolean_query (clique 3) in
        (* C5 -> K3 exists, so Q_{K3} ⊆ Q_{C5}. *)
        check "contained" true (Containment.contained qb qa);
        check "reverse fails (K3 -> C5 has none)" false (Containment.contained qa qb));
  ]

(* ------------------------------------------------------------------ *)
(* Minimization                                                         *)
(* ------------------------------------------------------------------ *)

let minimize_tests =
  [
    Alcotest.test_case "redundant self-join removed" `Quick (fun () ->
        let query = q "Q(X) :- E(X, Y), E(X, Z)." in
        let m = Containment.minimize query in
        check_int "one atom" 1 (Query.atom_count m);
        check "equivalent" true (Containment.equivalent query m));
    Alcotest.test_case "already minimal query unchanged in size" `Quick (fun () ->
        let query = q "Q :- E(X, Y), E(Y, Z), E(Z, X)." in
        check_int "three atoms" 3 (Query.atom_count (Containment.minimize query)));
    Alcotest.test_case "chain folded into triangle" `Quick (fun () ->
        (* Body: triangle plus a walk around it; minimizes to the triangle. *)
        let query = q "Q :- E(X, Y), E(Y, Z), E(Z, X), E(X, B), E(B, C)." in
        let m = Containment.minimize query in
        check_int "three atoms" 3 (Query.atom_count m);
        check "equivalent" true (Containment.equivalent query m));
    Alcotest.test_case "head variables survive minimization" `Quick (fun () ->
        let query = q "Q(X, Y) :- E(X, Y), E(X, Z)." in
        let m = Containment.minimize query in
        check "equivalent" true (Containment.equivalent query m);
        Alcotest.(check (list string)) "head" [ "X"; "Y" ] (Array.to_list m.Query.head));
  ]

(* ------------------------------------------------------------------ *)
(* Two-atom containment (Proposition 3.6)                               *)
(* ------------------------------------------------------------------ *)

let two_atom_tests =
  [
    Alcotest.test_case "two-atom route agrees on simple cases" `Quick (fun () ->
        let q1 = q "Q(X) :- E(X, Z), E(Z, W)." in
        let q2 = q "Q(X) :- E(X, Z)." in
        check "contained" true (Containment.contained_two_atom q1 q2);
        check "reverse" false (Containment.contained_two_atom q2 q1));
    Alcotest.test_case "non-two-atom q1 rejected" `Quick (fun () ->
        let q1 = q "Q :- E(X, Y), E(Y, Z), E(Z, X)." in
        check "raises" true
          (try
             ignore (Containment.contained_two_atom q1 q1);
             false
           with Invalid_argument _ -> true));
  ]

(* ------------------------------------------------------------------ *)
(* Properties                                                           *)
(* ------------------------------------------------------------------ *)

(* Random conjunctive queries over a fixed small vocabulary. *)
let gen_query ?(max_atoms = 4) ?(max_vars = 4) ~head_arity () =
  QCheck.Gen.(
    let var = 0 -- (max_vars - 1) >|= Printf.sprintf "V%d" in
    let atom =
      let* which = 0 -- 1 in
      if which = 0 then
        let* x = var in
        let+ y = var in
        ("E", [ x; y ])
      else
        let+ x = var in
        ("P", [ x ])
    in
    let* body = list_size (1 -- max_atoms) atom in
    let+ head = list_repeat head_arity var in
    Query.make ~head body)

let arbitrary_query ?max_atoms ?max_vars ~head_arity () =
  QCheck.make
    ~print:Query.to_string
    (gen_query ?max_atoms ?max_vars ~head_arity ())

let arbitrary_query_pair =
  QCheck.make
    ~print:(fun (a, b) -> Query.to_string a ^ "  vs  " ^ Query.to_string b)
    QCheck.Gen.(
      let* arity = 0 -- 2 in
      let* a = gen_query ~head_arity:arity () in
      let+ b = gen_query ~head_arity:arity () in
      (a, b))

let property_tests =
  [
    qtest ~count:200 "containment agrees with evaluation characterization"
      arbitrary_query_pair
      (fun (q1, q2) ->
        Containment.contained q1 q2 = Containment.contained_via_evaluation q1 q2);
    qtest ~count:200 "containment is reflexive" (arbitrary_query ~head_arity:1 ())
      (fun query -> Containment.contained query query);
    qtest ~count:100 "containment is transitive on random triples"
      (QCheck.make
         QCheck.Gen.(
           let* a = gen_query ~head_arity:1 () in
           let* b = gen_query ~head_arity:1 () in
           let+ c = gen_query ~head_arity:1 () in
           (a, b, c)))
      (fun (a, b, c) ->
        (not (Containment.contained a b && Containment.contained b c))
        || Containment.contained a c);
    qtest ~count:200 "minimize yields an equivalent query with no more atoms"
      (arbitrary_query ~head_arity:1 ())
      (fun query ->
        let m = Containment.minimize query in
        Containment.equivalent query m && Query.atom_count m <= Query.atom_count query);
    qtest ~count:200 "minimized queries are cores (idempotent)"
      (arbitrary_query ~head_arity:1 ())
      (fun query ->
        let m = Containment.minimize query in
        Query.atom_count (Containment.minimize m) = Query.atom_count m);
    qtest ~count:200 "two-atom route agrees with Chandra-Merlin"
      (QCheck.make
         ~print:(fun (a, b) -> Query.to_string a ^ "  vs  " ^ Query.to_string b)
         QCheck.Gen.(
           let* arity = 0 -- 2 in
           let* a = gen_query ~max_atoms:3 ~head_arity:arity () in
           let+ b = gen_query ~head_arity:arity () in
           (a, b)))
      (fun (q1, q2) ->
        (not (Query.is_two_atom q1))
        || Containment.contained_two_atom q1 q2 = Containment.contained q1 q2);
    qtest ~count:100 "hom existence equals canonical-query containment"
      (arbitrary_pair ~max_size_a:3 ~max_size_b:3 ~max_tuples:3 ())
      (fun (a, b) ->
        let qa = Canonical.boolean_query a and qb = Canonical.boolean_query b in
        Homomorphism.exists a b = Containment.contained qb qa);
  ]


(* ------------------------------------------------------------------ *)
(* Unions of conjunctive queries                                        *)
(* ------------------------------------------------------------------ *)

let ucq_tests =
  [
    Alcotest.test_case "union evaluation" `Quick (fun () ->
        (* out-edges union in-edges over the path 0->1->2. *)
        let u = Ucq.make [ q "Q(X) :- E(X, Y)."; q "Q(X) :- E(Y, X)." ] in
        check_int "all three nodes" 3 (List.length (Ucq.evaluate u (path 3))));
    Alcotest.test_case "mismatched arities rejected" `Quick (fun () ->
        check "raises" true
          (try
             ignore (Ucq.make [ q "Q(X) :- E(X, X)."; q "Q :- E(X, X)." ]);
             false
           with Invalid_argument _ -> true));
    Alcotest.test_case "Sagiv-Yannakakis containment" `Quick (fun () ->
        let walks = Ucq.make [ q "Q(X) :- E(X, Y)."; q "Q(X) :- E(X, Y), E(Y, Z)." ] in
        let single = Ucq.make [ q "Q(X) :- E(X, Y)." ] in
        check "both walks in single" true (Ucq.contained walks single);
        check "single in walks" true (Ucq.contained single walks);
        let incoming = Ucq.make [ q "Q(X) :- E(Y, X)." ] in
        check "not contained" false (Ucq.contained single incoming));
    Alcotest.test_case "minimize removes redundant disjuncts" `Quick (fun () ->
        let u =
          Ucq.make
            [ q "Q(X) :- E(X, Y), E(Y, Z)."; q "Q(X) :- E(X, Y)."; q "Q(X) :- E(X, Y), E(X, W)." ]
        in
        let m = Ucq.minimize u in
        check_int "single disjunct" 1 (Ucq.disjunct_count m);
        check "equivalent" true (Ucq.equivalent u m));
    qtest ~count:100 "containment implies answer inclusion"
      (QCheck.pair
         (QCheck.make
            QCheck.Gen.(
              let* a = gen_query ~head_arity:1 () in
              let* b = gen_query ~head_arity:1 () in
              let+ c = gen_query ~head_arity:1 () in
              (Ucq.make [ a ], Ucq.make [ b; c ])))
         (arbitrary_structure ~max_rels:2 ~max_arity:2 ~max_size:3 ~max_tuples:4 ()))
      (fun ((u1, u2), db) ->
        (not (Ucq.contained u1 u2))
        || List.for_all
             (fun t -> List.exists (Tuple.equal t) (Ucq.evaluate u2 db))
             (Ucq.evaluate u1 db));
    qtest ~count:60 "minimize preserves semantics on random unions"
      (QCheck.make
         QCheck.Gen.(
           let* a = gen_query ~head_arity:1 () in
           let+ b = gen_query ~head_arity:1 () in
           Ucq.make [ a; b ]))
      (fun u -> Ucq.equivalent u (Ucq.minimize u));
  ]


(* ------------------------------------------------------------------ *)
(* Yannakakis evaluation of acyclic queries                             *)
(* ------------------------------------------------------------------ *)

let acyclic_eval_tests =
  [
    Alcotest.test_case "recognition" `Quick (fun () ->
        check "chain acyclic" true (Acyclic.is_acyclic (q "Q(X) :- E(X, Y), E(Y, Z)."));
        check "triangle cyclic" false
          (Acyclic.is_acyclic (q "Q :- E(X, Y), E(Y, Z), E(Z, X).")));
    Alcotest.test_case "cyclic query rejected" `Quick (fun () ->
        check "raises" true
          (try
             ignore (Acyclic.evaluate (q "Q :- E(X, Y), E(Y, Z), E(Z, X).") (clique 3));
             false
           with Invalid_argument _ -> true));
    Alcotest.test_case "two-step reachability on a path" `Quick (fun () ->
        let query = q "Q(X, Z) :- E(X, Y), E(Y, Z)." in
        let answers = Acyclic.evaluate query (path 4) in
        check_int "two pairs" 2 (List.length answers);
        check "0->2" true (List.exists (Tuple.equal [| 0; 2 |]) answers));
    Alcotest.test_case "repeated head variables" `Quick (fun () ->
        let query = q "Q(X, X) :- E(X, Y)." in
        let answers = Acyclic.evaluate query (path 3) in
        check "diagonal answers" true
          (List.for_all (fun t -> t.(0) = t.(1)) answers);
        check_int "two" 2 (List.length answers));
    Alcotest.test_case "free head variable ranges over the universe" `Quick (fun () ->
        let query = Query.make ~head:[ "W" ] [ ("E", [ "X"; "Y" ]) ] in
        check_int "3 answers on path3" 3
          (List.length (Acyclic.evaluate query (path 3))));
    qtest ~count:200 "agrees with generic evaluation on acyclic queries"
      (QCheck.pair
         (arbitrary_query ~head_arity:2 ())
         (arbitrary_structure ~max_rels:2 ~max_arity:2 ~max_size:3 ~max_tuples:4 ()))
      (fun (query, db) ->
        (not (Acyclic.is_acyclic query))
        ||
        let fast = Acyclic.evaluate query db in
        let slow = Containment.evaluate query db in
        fast = slow);
  ]


(* ------------------------------------------------------------------ *)
(* SPJ algebra                                                          *)
(* ------------------------------------------------------------------ *)

let algebra_tests =
  [
    Alcotest.test_case "scan, select, project by hand" `Quick (fun () ->
        (* Loops of the graph: select E(x,y) with x = y. *)
        let plan =
          Algebra.Project
            ([ "x" ], Algebra.Select ("x", "y", Algebra.Relation ("E", [| "x"; "y" |])))
        in
        let g = digraph ~size:3 [ (0, 0); (0, 1); (2, 2) ] in
        let t = Algebra.eval g plan in
        check_int "two loops" 2 (List.length t.Algebra.rows));
    Alcotest.test_case "natural join" `Quick (fun () ->
        let plan =
          Algebra.Join
            ( Algebra.Relation ("E", [| "x"; "y" |]),
              Algebra.Rename ([ ("x", "y"); ("y", "z") ], Algebra.Relation ("E", [| "x"; "y" |])) )
        in
        let t = Algebra.eval (path 4) plan in
        (* 2-walks on a path of 3 edges: 0-1-2 and 1-2-3. *)
        check_int "two walks" 2 (List.length t.Algebra.rows));
    Alcotest.test_case "rename collision rejected" `Quick (fun () ->
        check "raises" true
          (try
             ignore
               (Algebra.eval (path 2)
                  (Algebra.Rename ([ ("x", "y") ], Algebra.Relation ("E", [| "x"; "y" |]))));
             false
           with Invalid_argument _ -> true));
    Alcotest.test_case "unknown column rejected" `Quick (fun () ->
        check "raises" true
          (try
             ignore (Algebra.eval (path 2) (Algebra.Project ([ "zz" ], Algebra.Relation ("E", [| "x"; "y" |]))));
             false
           with Invalid_argument _ -> true));
    Alcotest.test_case "compiled plan for the paper's query shape" `Quick (fun () ->
        let query = q "Q(X1, X2) :- E(X1, Z), E(Z, X2)." in
        let answers = Algebra.evaluate_query query (directed_cycle 5) in
        check_int "five 2-walks on C5" 5 (List.length answers));
    Alcotest.test_case "unsafe queries rejected by the compiler" `Quick (fun () ->
        check "raises" true
          (try
             ignore (Algebra.plan_of_query (q "Q(W) :- E(X, Y)."));
             false
           with Invalid_argument _ -> true));
    qtest ~count:200 "SPJ plans agree with homomorphism semantics"
      (QCheck.pair
         (arbitrary_query ~head_arity:2 ())
         (arbitrary_structure ~max_rels:2 ~max_arity:2 ~max_size:3 ~max_tuples:4 ()))
      (fun (query, db) ->
        (not (Query.is_safe query))
        || Algebra.evaluate_query query db = Containment.evaluate query db);
  ]

(* ------------------------------------------------------------------ *)
(* The chase                                                            *)
(* ------------------------------------------------------------------ *)

let chase_tests =
  let fk =
    (* Every employee works in some department: Emp(e) -> Works(e, d). *)
    Chase.tgd ~body:[ ("Emp", [ "E1" ]) ] ~head:[ ("Works", [ "E1"; "D" ]) ]
  in
  let dept_mgr =
    (* Every department someone works in has a manager who works there. *)
    Chase.tgd
      ~body:[ ("Works", [ "E1"; "D" ]) ]
      ~head:[ ("Mgr", [ "D"; "M" ]); ("Works", [ "M"; "D" ]) ]
  in
  [
    Alcotest.test_case "frontier and existentials" `Quick (fun () ->
        Alcotest.(check (list string)) "frontier" [ "E1" ] (Chase.frontier fk);
        Alcotest.(check (list string)) "existential" [ "D" ] (Chase.existentials fk));
    Alcotest.test_case "weak acyclicity" `Quick (fun () ->
        check "fk alone" true (Chase.is_weakly_acyclic [ fk ]);
        check "fk + manager" true (Chase.is_weakly_acyclic [ fk; dept_mgr ]);
        (* E(x,y) -> E(y,z): z is fresh in a recursive position: diverges. *)
        let diverging =
          Chase.tgd ~body:[ ("E", [ "X"; "Y" ]) ] ~head:[ ("E", [ "Y"; "Z" ]) ]
        in
        check "diverging" false (Chase.is_weakly_acyclic [ diverging ]));
    Alcotest.test_case "chase adds required facts with nulls" `Quick (fun () ->
        let v = Vocabulary.create [ ("Emp", 1); ("Works", 2); ("Mgr", 2) ] in
        let db = Structure.of_relations v ~size:1 [ ("Emp", [ [| 0 |] ]) ] in
        let chased = Chase.chase [ fk; dept_mgr ] db in
        check "works fact added" false
          (Relation.is_empty (Structure.relation chased "Works"));
        check "manager fact added" false
          (Relation.is_empty (Structure.relation chased "Mgr"));
        check "original element kept" true
          (Relation.mem (Structure.relation chased "Emp") [| 0 |]));
    Alcotest.test_case "chase is idempotent on satisfied databases" `Quick (fun () ->
        let v = Vocabulary.create [ ("Emp", 1); ("Works", 2) ] in
        let db =
          Structure.of_relations v ~size:2
            [ ("Emp", [ [| 0 |] ]); ("Works", [ [| 0; 1 |] ]) ]
        in
        let chased = Chase.chase [ fk ] db in
        check "unchanged" true (Structure.equal db chased));
    Alcotest.test_case "divergence detected" `Quick (fun () ->
        let diverging =
          Chase.tgd ~body:[ ("E", [ "X"; "Y" ]) ] ~head:[ ("E", [ "Y"; "Z" ]) ]
        in
        check "raises" true
          (try
             ignore (Chase.chase ~max_steps:50 [ diverging ] (path 2));
             false
           with Chase.Diverged -> true));
    Alcotest.test_case "containment under dependencies (textbook example)" `Quick (fun () ->
        (* Without the FK, employees need not work anywhere; with it, every
           employee is a worker. *)
        let q1 = q "Q(X) :- Emp(X)." in
        let q2 = q "Q(X) :- Works(X, D)." in
        check "not contained plainly" false (Containment.contained q1 q2);
        check "contained under fk" true (Chase.contained_under [ fk ] q1 q2);
        check "reverse still fails" false (Chase.contained_under [ fk ] q2 q1));
    Alcotest.test_case "transitivity dependency folds paths" `Quick (fun () ->
        let trans =
          Chase.tgd
            ~body:[ ("E", [ "X"; "Y" ]); ("E", [ "Y"; "Z" ]) ]
            ~head:[ ("E", [ "X"; "Z" ]) ]
        in
        check "weakly acyclic (no existentials)" true (Chase.is_weakly_acyclic [ trans ]);
        let q1 = q "Q(X, Z) :- E(X, Y), E(Y, Z)." in
        let q2 = q "Q(X, Z) :- E(X, Z)." in
        check "not plainly" false (Containment.contained q1 q2);
        check "under transitivity" true (Chase.contained_under [ trans ] q1 q2));
    qtest ~count:100 "no dependencies = plain containment"
      (QCheck.make
         ~print:(fun (a, b) -> Query.to_string a ^ "  vs  " ^ Query.to_string b)
         QCheck.Gen.(
           let* a = gen_query ~head_arity:1 () in
           let+ b = gen_query ~head_arity:1 () in
           (a, b)))
      (fun (q1, q2) ->
        Chase.contained_under [] q1 q2 = Containment.contained_via_evaluation q1 q2);
  ]

let () =
  Alcotest.run "cq"
    [
      ("parser", parser_tests);
      ("canonical", canonical_tests);
      ("containment", containment_tests);
      ("minimize", minimize_tests);
      ("two-atom", two_atom_tests);
      ("properties", property_tests);
      ("ucq", ucq_tests);
      ("acyclic-eval", acyclic_eval_tests);
      ("algebra", algebra_tests);
      ("chase", chase_tests);
    ]
