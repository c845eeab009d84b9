(* The delta-debugging minimizer behind [cqc triage]: ddmin on lists,
   plus the structure- and query-level shrinkers built on it.  The
   load-bearing property throughout is the triage contract — whatever
   the shrinker returns still satisfies the predicate it was given
   (i.e. a minimized reproducer still reproduces the crash signature). *)

module Structure = Relational.Structure
module Query = Cq.Query

let check = Alcotest.(check bool)

let check_int = Alcotest.(check int)

(* ------------------------------------------------------------------ *)
(* ddmin on plain lists                                                 *)
(* ------------------------------------------------------------------ *)

let contains_all targets l = List.for_all (fun t -> List.mem t l) targets

let ddmin_tests =
  [
    Alcotest.test_case "isolates a scattered pair exactly" `Quick (fun () ->
        let input = List.init 20 (fun i -> i + 1) in
        let keeps = contains_all [ 3; 17 ] in
        Alcotest.(check (list int)) "pair" [ 3; 17 ] (Shrink.ddmin ~keeps input));
    Alcotest.test_case "isolates a single culprit" `Quick (fun () ->
        Alcotest.(check (list int))
          "singleton" [ 7 ]
          (Shrink.ddmin ~keeps:(List.mem 7) (List.init 30 (fun i -> i))));
    Alcotest.test_case "trivially-true predicate shrinks to empty" `Quick
      (fun () ->
        Alcotest.(check (list int))
          "empty" []
          (Shrink.ddmin ~keeps:(fun _ -> true) [ 1; 2; 3; 4; 5 ]));
    Alcotest.test_case "input that never reproduced comes back verbatim"
      `Quick (fun () ->
        Alcotest.(check (list int))
          "unchanged" [ 1; 2; 3 ]
          (Shrink.ddmin ~keeps:(List.mem 99) [ 1; 2; 3 ]));
    Helpers.qtest ~count:300 "ddmin output reproduces and is a subsequence"
      QCheck.(small_list small_nat)
      (fun l ->
        let targets = List.filter (fun x -> x mod 3 = 0) l in
        let keeps = contains_all targets in
        let out = Shrink.ddmin ~keeps l in
        keeps out
        && List.length out <= List.length l
        && List.for_all (fun x -> List.mem x l) out);
  ]

(* ------------------------------------------------------------------ *)
(* Structure shrinking                                                  *)
(* ------------------------------------------------------------------ *)

let has_tuple_in rel s =
  Structure.fold_tuples (fun r _ acc -> acc || r = rel) s false

let crasher_tests =
  [
    Alcotest.test_case "padding around the trigger tuple is stripped" `Quick
      (fun () ->
        (* The synthetic-crasher shape from the serve tests: one BOOM
           tuple arms the abort hook, everything else is noise. *)
        let s =
          Relational.Structure_text.parse
            "size 5\nrel E 2\nrel BOOM 1\nE 0 1\nE 1 2\nE 2 3\nE 3 4\nE 4 0\n\
             E 1 3\nE 2 0\nBOOM 2\n"
        in
        let keeps = has_tuple_in "BOOM" in
        let s' = Shrink.structure ~keeps s in
        check "still reproduces" true (keeps s');
        check_int "one tuple left" 1 (Structure.total_tuples s');
        check_int "one element left" 1 (Structure.size s'));
    Alcotest.test_case "non-reproducing structure comes back verbatim" `Quick
      (fun () ->
        let s = Helpers.path 4 in
        check "unchanged" true
          (Structure.equal s (Shrink.structure ~keeps:(fun _ -> false) s)));
    Helpers.qtest ~count:200 "shrunk structure reproduces and never grows"
      (Helpers.arbitrary_structure ())
      (fun s ->
        let keeps t = Structure.total_tuples t >= 1 in
        if not (keeps s) then
          Structure.equal s (Shrink.structure ~keeps s)
        else
          let s' = Shrink.structure ~keeps s in
          keeps s'
          && Structure.total_tuples s' <= Structure.total_tuples s
          && Structure.size s' <= Structure.size s
          (* A monotone any-tuple predicate admits a one-tuple, one-element
             witness, and greedy ddmin + merging must find it. *)
          && Structure.total_tuples s' = 1
          && Structure.size s' = 1);
  ]

(* ------------------------------------------------------------------ *)
(* Query shrinking                                                      *)
(* ------------------------------------------------------------------ *)

let q s = Cq.Parser.parse s

let occurrences (query : Query.t) pred =
  List.length (List.filter (fun (a : Query.atom) -> a.pred = pred) query.body)

let query_tests =
  [
    Alcotest.test_case "irrelevant atoms and variables collapse" `Quick
      (fun () ->
        let query = q "Q(X) :- E(X,Y), E(Y,Z), E(Z,W), P(W)." in
        let keeps query' = occurrences query' "P" > 0 in
        let query' = Shrink.query ~keeps query in
        check "still reproduces" true (keeps query');
        check_int "one atom" 1 (Query.atom_count query');
        check "head untouched" true
          (Array.to_list query'.Query.head = [ "X" ]);
        check "no existentials left" true
          (Query.existential_variables query' = []));
    Alcotest.test_case "atoms the predicate needs survive" `Quick (fun () ->
        let query = q "Q(X) :- E(X,Y), E(Y,Z), P(Z), P(Y)." in
        let keeps query' = occurrences query' "P" >= 2 in
        let query' = Shrink.query ~keeps query in
        check "still reproduces" true (keeps query');
        check_int "both P atoms, nothing else" 2 (Query.atom_count query'));
    Alcotest.test_case "non-reproducing query comes back verbatim" `Quick
      (fun () ->
        let query = q "Q(X) :- E(X,Y)." in
        check "unchanged" true
          (Query.equal query (Shrink.query ~keeps:(fun _ -> false) query)));
    Helpers.qtest ~count:200 "shrunk query reproduces and never grows"
      (QCheck.make
         ~print:Query.to_string
         QCheck.Gen.(
           let* n_atoms = int_range 1 6 in
           let* body =
             list_repeat n_atoms
               (let* p = oneofl [ "E"; "P" ] in
                let arity = if p = "E" then 2 else 1 in
                let* vars =
                  list_repeat arity
                    (oneofl [ "X"; "Y"; "Z"; "W"; "V" ])
                in
                return (p, vars))
           in
           return (Query.make ~head:[ "X" ] (("E", [ "X"; "Y" ]) :: body))))
      (fun query ->
        let keeps query' = Query.atom_count query' >= 1 in
        let query' = Shrink.query ~keeps query in
        keeps query'
        && Query.atom_count query' <= Query.atom_count query
        && List.length (Query.variables query')
           <= List.length (Query.variables query)
        && Query.atom_count query' = 1);
  ]

let () =
  Alcotest.run "shrink"
    [
      ("ddmin", ddmin_tests);
      ("crasher", crasher_tests);
      ("query", query_tests);
    ]
