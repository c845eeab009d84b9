open Relational
open Schaefer
open Helpers

let check = Alcotest.(check bool)

let check_int = Alcotest.(check int)

(* ------------------------------------------------------------------ *)
(* Boolean_relation                                                     *)
(* ------------------------------------------------------------------ *)

let one_in_three = Boolean_relation.create 3 [ 0b001; 0b010; 0b100 ]

let same_relation r s = Boolean_relation.(arity r = arity s && masks r = masks s)

let full2 = Boolean_relation.create 2 [ 0b00; 0b01; 0b10; 0b11 ]

let boolean_relation_tests =
  [
    Alcotest.test_case "mask/tuple round trip" `Quick (fun () ->
        let t = [| 1; 0; 1 |] in
        Alcotest.check mapping_testable "round trip" t
          (Boolean_relation.tuple_of_mask 3 (Boolean_relation.mask_of_tuple t)));
    Alcotest.test_case "relation round trip" `Quick (fun () ->
        let r = one_in_three in
        check "equal" true (same_relation r (Boolean_relation.of_relation (Boolean_relation.to_relation r))));
    Alcotest.test_case "componentwise operations" `Quick (fun () ->
        check_int "and" 0b100 (Boolean_relation.tuple_and 0b110 0b101);
        check_int "or" 0b111 (Boolean_relation.tuple_or 0b110 0b101);
        check_int "xor3" 0b011 (Boolean_relation.tuple_xor3 0b110 0b101 0b000);
        check_int "majority" 0b100 (Boolean_relation.tuple_majority 0b110 0b101 0b100));
    Alcotest.test_case "ones" `Quick (fun () ->
        Alcotest.(check (list int)) "ones" [ 0; 2 ] (Boolean_relation.ones 3 0b101));
    Alcotest.test_case "complement_tuples" `Quick (fun () ->
        let r = Boolean_relation.complement_tuples one_in_three in
        check "complemented" true
          (same_relation r (Boolean_relation.create 3 [ 0b110; 0b101; 0b011 ])));
  ]

(* ------------------------------------------------------------------ *)
(* Classify (Theorem 3.1)                                               *)
(* ------------------------------------------------------------------ *)

let classify_tests =
  [
    Alcotest.test_case "1-in-3 SAT relation is in no Schaefer class" `Quick (fun () ->
        Alcotest.(check (list string)) "classes" []
          (List.map Classify.class_name (Classify.relation_classes one_in_three)));
    Alcotest.test_case "implication relation is Horn, dual Horn, bijunctive" `Quick (fun () ->
        (* x -> y : {00, 01, 11} *)
        let r = Boolean_relation.create 2 [ 0b00; 0b10; 0b11 ] in
        check "horn" true (Classify.relation_in_class r Classify.Horn);
        check "dual" true (Classify.relation_in_class r Classify.Dual_horn);
        check "bijunctive" true (Classify.relation_in_class r Classify.Bijunctive);
        check "0-valid" true (Classify.relation_in_class r Classify.Zero_valid);
        check "1-valid" true (Classify.relation_in_class r Classify.One_valid);
        check "not affine" false (Classify.relation_in_class r Classify.Affine));
    Alcotest.test_case "XOR relation is affine and bijunctive, not Horn" `Quick (fun () ->
        let r = Boolean_relation.create 2 [ 0b01; 0b10 ] in
        check "affine" true (Classify.relation_in_class r Classify.Affine);
        check "bijunctive" true (Classify.relation_in_class r Classify.Bijunctive);
        check "not horn" false (Classify.relation_in_class r Classify.Horn);
        check "not dual" false (Classify.relation_in_class r Classify.Dual_horn));
    Alcotest.test_case "paper Example 3.8: first labeling of C4 is affine only" `Quick (fun () ->
        (* E' = {0001, 0110, 1011, 1100} written p1p2p3p4; bit i = position i. *)
        let tuples = [ [|0;0;0;1|]; [|0;1;1;0|]; [|1;0;1;1|]; [|1;1;0;0|] ] in
        let r = Boolean_relation.create 4 (List.map Boolean_relation.mask_of_tuple tuples) in
        check "not 0-valid" false (Classify.relation_in_class r Classify.Zero_valid);
        check "not 1-valid" false (Classify.relation_in_class r Classify.One_valid);
        check "not horn" false (Classify.relation_in_class r Classify.Horn);
        check "not dual horn" false (Classify.relation_in_class r Classify.Dual_horn);
        check "not bijunctive" false (Classify.relation_in_class r Classify.Bijunctive);
        check "affine" true (Classify.relation_in_class r Classify.Affine));
    Alcotest.test_case "paper Example 3.8: second labeling is affine and bijunctive" `Quick
      (fun () ->
        let tuples = [ [|0;0;1;0|]; [|1;0;1;1|]; [|1;1;0;1|]; [|0;1;0;0|] ] in
        let r = Boolean_relation.create 4 (List.map Boolean_relation.mask_of_tuple tuples) in
        check "not horn" false (Classify.relation_in_class r Classify.Horn);
        check "not dual horn" false (Classify.relation_in_class r Classify.Dual_horn);
        check "bijunctive" true (Classify.relation_in_class r Classify.Bijunctive);
        check "affine" true (Classify.relation_in_class r Classify.Affine));
    Alcotest.test_case "paper Example 3.7: K2 booleanized is bijunctive and affine" `Quick
      (fun () ->
        let r = Boolean_relation.create 2 [ 0b01; 0b10 ] in
        Alcotest.(check (list string)) "classes" [ "bijunctive"; "affine" ]
          (List.map Classify.class_name (Classify.relation_classes r)));
    Alcotest.test_case "classification is stable across calls and equal relations" `Quick
      (fun () ->
        (* Classes are computed from the relation alone: a repeated call
           and a structurally equal relation built from its tuples in
           another order get the same answer. *)
        let r = Boolean_relation.create 2 [ 0b00; 0b10; 0b11 ] in
        let first = Classify.relation_classes r in
        Alcotest.(check (list string))
          "second call" (List.map Classify.class_name first)
          (List.map Classify.class_name (Classify.relation_classes r));
        let r' = Boolean_relation.create 2 [ 0b11; 0b10; 0b00 ] in
        Alcotest.(check (list string))
          "structurally equal relation" (List.map Classify.class_name first)
          (List.map Classify.class_name (Classify.relation_classes r')));
    Alcotest.test_case "structure classes intersect over relations" `Quick (fun () ->
        let v = Vocabulary.create [ ("R", 2); ("S", 2) ] in
        let b =
          Structure.of_relations v ~size:2
            [ ("R", [ [| 0; 0 |]; [| 1; 1 |] ]) (* horn+dual+bij+affine+0+1 *);
              ("S", [ [| 0; 1 |]; [| 1; 0 |] ]) (* bij+affine only *) ]
        in
        Alcotest.(check (list string)) "classes" [ "bijunctive"; "affine" ]
          (List.map Classify.class_name (Classify.structure_classes b)));
    qtest ~count:200 "structure classes intersect over relations of random structures"
      (QCheck.make
         QCheck.Gen.(
           let* arities = list_size (1 -- 3) (1 -- 3) in
           flatten_l
             (List.mapi
                (fun i arity ->
                  let+ masks = gen_masks ~arity in
                  (Printf.sprintf "R%d" i, arity, masks))
                arities)))
      (fun rels ->
        let v = Vocabulary.create (List.map (fun (name, arity, _) -> (name, arity)) rels) in
        let b =
          Structure.of_relations v ~size:2
            (List.map
               (fun (name, arity, masks) ->
                 (name, List.map (Boolean_relation.tuple_of_mask arity) masks))
               rels)
        in
        let classes = Classify.structure_classes b in
        let expected =
          List.filter
            (fun c ->
              List.for_all
                (fun (_, arity, masks) ->
                  List.mem c (Classify.relation_classes (Boolean_relation.create arity masks)))
                rels)
            Classify.all_classes
        in
        let first_preferred =
          List.find_opt
            (fun c -> List.mem c classes)
            Classify.[ Zero_valid; One_valid; Bijunctive; Horn; Dual_horn; Affine ]
        in
        classes = expected && Classify.classify b = first_preferred);
    Alcotest.test_case "non-Boolean structure rejected" `Quick (fun () ->
        check "raises" true
          (try
             ignore (Classify.structure_classes (clique 3));
             false
           with Invalid_argument _ -> true));
    qtest ~count:100 "closure generators land in their class"
      (QCheck.make
         QCheck.Gen.(
           let* cls =
             oneofl
               [ Classify.Zero_valid; Classify.One_valid; Classify.Horn;
                 Classify.Dual_horn; Classify.Bijunctive; Classify.Affine ]
           in
           let* arity = 1 -- 4 in
           let+ r = gen_boolean_relation_in cls ~arity in
           (cls, r)))
      (fun (cls, r) -> Classify.relation_in_class r cls);
  ]

(* ------------------------------------------------------------------ *)
(* Define (Theorem 3.2): models(phi_R) = R                              *)
(* ------------------------------------------------------------------ *)

let models_match relation = function
  | Define.Clausal f ->
    let model_masks =
      List.map
        (fun m -> Boolean_relation.mask_of_tuple (Array.map (fun b -> if b then 1 else 0) m))
        (Oracle.Models.cnf f)
    in
    List.sort_uniq Int.compare model_masks = Boolean_relation.masks relation
  | Define.Linear s ->
    let model_masks =
      List.map
        (fun m -> Boolean_relation.mask_of_tuple (Array.map (fun b -> if b then 1 else 0) m))
        (Oracle.Models.gf2 s)
    in
    List.sort_uniq Int.compare model_masks = Boolean_relation.masks relation

let define_tests =
  [
    Alcotest.test_case "horn formula for implication relation" `Quick (fun () ->
        let r = Boolean_relation.create 2 [ 0b00; 0b10; 0b11 ] in
        let f = Define.horn_formula r in
        check "horn" true (Cnf.is_horn f);
        check "models match" true (models_match r (Define.Clausal f)));
    Alcotest.test_case "affine system for XOR" `Quick (fun () ->
        let r = Boolean_relation.create 2 [ 0b01; 0b10 ] in
        let s = Define.affine_system r in
        check "models match" true (models_match r (Define.Linear s)));
    Alcotest.test_case "affine system for paper's C4 labeling" `Quick (fun () ->
        let tuples = [ [|0;0;0;1|]; [|0;1;1;0|]; [|1;0;1;1|]; [|1;1;0;0|] ] in
        let r = Boolean_relation.create 4 (List.map Boolean_relation.mask_of_tuple tuples) in
        check "models match" true (models_match r (Define.Linear (Define.affine_system r))));
    Alcotest.test_case "empty relation gives unsatisfiable formulas" `Quick (fun () ->
        let r = Boolean_relation.create 2 [] in
        check "horn unsat" true (Oracle.Models.cnf (Define.horn_formula r) = []);
        check "bijunctive unsat" true (Oracle.Models.cnf (Define.bijunctive_formula r) = []);
        check "affine unsat" true (Oracle.Models.gf2 (Define.affine_system r) = []));
    Alcotest.test_case "full relation gives valid formulas" `Quick (fun () ->
        let r = full2 in
        check_int "horn" 4 (List.length (Oracle.Models.cnf (Define.horn_formula r)));
        check_int "affine" 4 (List.length (Oracle.Models.gf2 (Define.affine_system r))));
    Alcotest.test_case "trivial classes rejected" `Quick (fun () ->
        check "raises" true
          (try
             ignore (Define.defining (full2) Classify.Zero_valid);
             false
           with Invalid_argument _ -> true));
    Alcotest.test_case "wrong class rejected" `Quick (fun () ->
        check "raises" true
          (try
             ignore (Define.horn_formula one_in_three);
             false
           with Invalid_argument _ -> true));
    qtest ~count:120 "horn formulas define their relation"
      (QCheck.make
         QCheck.Gen.(1 -- 4 >>= fun a -> gen_boolean_relation_in Classify.Horn ~arity:a))
      (fun r ->
        let f = Define.horn_formula r in
        Cnf.is_horn f && models_match r (Define.Clausal f));
    qtest ~count:120 "dual horn formulas define their relation"
      (QCheck.make
         QCheck.Gen.(1 -- 4 >>= fun a -> gen_boolean_relation_in Classify.Dual_horn ~arity:a))
      (fun r ->
        let f = Define.dual_horn_formula r in
        Cnf.is_dual_horn f && models_match r (Define.Clausal f));
    qtest ~count:120 "bijunctive formulas define their relation"
      (QCheck.make
         QCheck.Gen.(1 -- 4 >>= fun a -> gen_boolean_relation_in Classify.Bijunctive ~arity:a))
      (fun r ->
        let f = Define.bijunctive_formula r in
        Cnf.is_two_cnf f && models_match r (Define.Clausal f));
    qtest ~count:120 "affine systems define their relation"
      (QCheck.make
         QCheck.Gen.(1 -- 4 >>= fun a -> gen_boolean_relation_in Classify.Affine ~arity:a))
      (fun r -> models_match r (Define.Linear (Define.affine_system r)));
  ]

(* ------------------------------------------------------------------ *)
(* SAT solvers                                                          *)
(* ------------------------------------------------------------------ *)

let horn_only f = Cnf.make ~nvars:f.Cnf.nvars (List.filter (fun c ->
    List.length (List.filter (fun l -> l.Cnf.sign) c) <= 1) f.Cnf.clauses)

let two_only f = Cnf.make ~nvars:f.Cnf.nvars (List.filter (fun c -> List.length c <= 2) f.Cnf.clauses)

(* A unit-propagation refutation replays to the empty clause: every
   clause but the last has all its literals false but one, which it makes
   true, and the last has all its literals false. *)
let replays_to_empty_clause f steps =
  let clauses = Array.of_list f.Cnf.clauses in
  let value = Hashtbl.create 8 in
  let is_false (l : Cnf.literal) = Hashtbl.find_opt value l.var = Some (not l.sign) in
  let rec go = function
    | [] -> false
    | [ k ] -> List.for_all is_false clauses.(k)
    | k :: rest -> (
      match List.sort_uniq compare (List.filter (fun l -> not (is_false l)) clauses.(k)) with
      | [ l ] ->
        Hashtbl.replace value l.Cnf.var l.Cnf.sign;
        go rest
      | _ -> false)
  in
  go steps

(* Each step [(k, l)] of a 2-SAT refutation follows clause [k] from the
   current literal [cur]: its literals are all [not cur] or [l]. *)
let implication_cycle_holds f (r : Two_sat.refutation) =
  let clauses = Array.of_list f.Cnf.clauses in
  let negate (l : Cnf.literal) = { l with sign = not l.sign } in
  let rec chain cur goal = function
    | [] -> cur = goal
    | (k, l) :: rest ->
      clauses.(k) <> []
      && List.for_all (fun x -> x = negate cur || x = l) clauses.(k)
      && chain l goal rest
  in
  chain r.pivot (negate r.pivot) r.forward
  && chain (negate r.pivot) r.pivot r.backward

let sat_tests =
  [
    Alcotest.test_case "horn: simple chain" `Quick (fun () ->
        (* p0, p0 -> p1, p1 -> p2 *)
        let f =
          Cnf.make ~nvars:3
            [ [ Cnf.pos 0 ]; [ Cnf.neg 0; Cnf.pos 1 ]; [ Cnf.neg 1; Cnf.pos 2 ] ]
        in
        match Horn_sat.solve f with
        | Error _ -> Alcotest.fail "expected sat"
        | Ok m -> check "all true" true (Array.for_all Fun.id m));
    Alcotest.test_case "horn: contradiction detected" `Quick (fun () ->
        let f = Cnf.make ~nvars:2 [ [ Cnf.pos 0 ]; [ Cnf.neg 0 ] ] in
        check "unsat" true (Horn_sat.solve f = Error [ 0; 1 ]));
    Alcotest.test_case "horn: least model is minimal" `Quick (fun () ->
        let f = Cnf.make ~nvars:2 [ [ Cnf.neg 0; Cnf.pos 1 ] ] in
        match Horn_sat.solve f with
        | Error _ -> Alcotest.fail "sat"
        | Ok m -> check "all false" true (Array.for_all not m));
    Alcotest.test_case "2-sat: forced chain" `Quick (fun () ->
        let f =
          Cnf.make ~nvars:3
            [ [ Cnf.pos 0 ]; [ Cnf.neg 0; Cnf.pos 1 ]; [ Cnf.neg 1; Cnf.neg 2 ] ]
        in
        (match Two_sat.solve f with
        | Error _ -> Alcotest.fail "sat"
        | Ok m -> check "model" true (Oracle.Models.satisfies_cnf m f));
        match Oracle.Two_sat_phase.solve f with
        | None -> Alcotest.fail "sat (phase)"
        | Some m -> check "model (phase)" true (Oracle.Models.satisfies_cnf m f));
    Alcotest.test_case "2-sat: unsat cycle" `Quick (fun () ->
        let f =
          Cnf.make ~nvars:2
            [ [ Cnf.pos 0; Cnf.pos 1 ]; [ Cnf.pos 0; Cnf.neg 1 ];
              [ Cnf.neg 0; Cnf.pos 1 ]; [ Cnf.neg 0; Cnf.neg 1 ] ]
        in
        check "scc unsat" true (Result.is_error (Two_sat.solve f));
        check "phase unsat" true (Oracle.Two_sat_phase.solve f = None));
    qtest ~count:300 "horn solver agrees with enumeration"
      (QCheck.make (QCheck.Gen.(1 -- 7) |> fun g ->
           QCheck.Gen.(g >>= fun n -> gen_cnf ~nvars:n ~max_clauses:8 ~max_clause_len:3)))
      (fun f ->
        let f = horn_only f in
        match Horn_sat.solve f with
        | Ok m -> Oracle.Models.satisfies_cnf m f
        | Error steps -> (not (naive_sat f)) && replays_to_empty_clause f steps);
    qtest ~count:300 "2-sat solvers agree with enumeration"
      (QCheck.make (QCheck.Gen.(1 -- 7) |> fun g ->
           QCheck.Gen.(g >>= fun n -> gen_cnf ~nvars:n ~max_clauses:10 ~max_clause_len:2)))
      (fun f ->
        let f = two_only f in
        let expected = naive_sat f in
        let scc_ok =
          match Two_sat.solve f with
          | Ok m -> Oracle.Models.satisfies_cnf m f
          | Error r -> (not expected) && implication_cycle_holds f r
        in
        let phase_ok =
          match Oracle.Two_sat_phase.solve f with Some m -> Oracle.Models.satisfies_cnf m f | None -> not expected
        in
        scc_ok && phase_ok);
    qtest ~count:200 "gf2 rank-nullity"
      (QCheck.make
         QCheck.Gen.(
           let* cols = 1 -- 8 in
           let+ rows = list_size (0 -- 8) (list_repeat cols bool) in
           (cols, List.map Array.of_list rows)))
      (fun (cols, rows) ->
        let basis = Gf2.nullspace_basis ~ncols:cols rows in
        Gf2.rank rows + List.length basis = cols
        && List.for_all
             (fun v ->
               List.for_all
                 (fun row -> not (Array.fold_left ( <> ) false (Array.map2 ( && ) row v)))
                 rows)
             basis);
    qtest ~count:200 "horn least model is pointwise minimal"
      (QCheck.make (QCheck.Gen.(1 -- 6) |> fun g ->
           QCheck.Gen.(g >>= fun n -> gen_cnf ~nvars:n ~max_clauses:6 ~max_clause_len:3)))
      (fun f ->
        let f = horn_only f in
        match Horn_sat.solve f with
        | Error _ -> true
        | Ok least ->
          List.for_all
            (fun m ->
              Array.for_all2 (fun l v -> (not l) || v) least m)
            (Oracle.Models.cnf f));
    qtest ~count:100 "flip_signs is an involution on satisfiability"
      (QCheck.make (QCheck.Gen.(1 -- 6) |> fun g ->
           QCheck.Gen.(g >>= fun n -> gen_cnf ~nvars:n ~max_clauses:6 ~max_clause_len:3)))
      (fun f ->
        naive_sat (Cnf.flip_signs (Cnf.flip_signs f)) = naive_sat f
        && naive_sat (Cnf.flip_signs f) = naive_sat f);
    qtest ~count:200 "gf2 solve agrees with enumeration"
      (QCheck.make
         QCheck.Gen.(
           let* n = 1 -- 6 in
           let+ eqs =
             list_size (0 -- 6)
               (let* coeffs = list_repeat n bool in
                let+ rhs = bool in
                { Gf2.coeffs = Array.of_list coeffs; rhs })
           in
           Gf2.make_system ~nvars:n eqs))
      (fun s ->
        match Gf2.solve s with
        | Ok m -> Oracle.Models.satisfies_gf2 m s
        | Error combo ->
          (* The returned equations sum to 0 = 1. *)
          let sum =
            List.fold_left
              (fun (coeffs, rhs) i ->
                let e = List.nth s.Gf2.equations i in
                (Array.map2 ( <> ) coeffs e.Gf2.coeffs, rhs <> e.Gf2.rhs))
              (Array.make s.Gf2.nvars false, false)
              combo
          in
          Oracle.Models.gf2 s = [] && sum = (Array.make s.Gf2.nvars false, true));
  ]

(* ------------------------------------------------------------------ *)
(* Uniform algorithms (Theorems 3.3 and 3.4)                            *)
(* ------------------------------------------------------------------ *)

let gen_uniform_instance cls =
  QCheck.make
    ~print:(fun (a, b) -> Format.asprintf "A = %a@.B = %a" Structure.pp a Structure.pp b)
    QCheck.Gen.(
      let* b = gen_schaefer_structure cls in
      let+ a = gen_source_for b ~max_size:5 ~max_tuples:5 in
      (a, b))

let outcome_matches a b = function
  | Uniform.Hom h -> Homomorphism.is_homomorphism a b h && brute_force_exists a b
  | Uniform.No_hom _ -> not (brute_force_exists a b)
  | Uniform.Not_applicable _ -> false

let uniform_tests =
  let classes =
    [ Classify.Zero_valid; Classify.One_valid; Classify.Horn; Classify.Dual_horn;
      Classify.Bijunctive; Classify.Affine ]
  in
  let per_class make_name prop =
    List.map
      (fun cls ->
        qtest ~count:120 (make_name (Classify.class_name cls)) (gen_uniform_instance cls) prop)
      classes
  in
  (* A "no" of the formula route comes with a refutation the checker
     accepts, of the kind of the class [B] is solved as; Booleanization
     wraps the refutation of the encoded pair. *)
  let refutation_checks a b c =
    match Classify.classify b with
    | Some cls ->
      let kind =
        match cls with
        | Classify.Horn | Classify.Dual_horn -> "unit-propagation"
        | Classify.Bijunctive -> "implication-cycle"
        | Classify.Affine -> "gf2-contradiction"
        | Classify.Zero_valid | Classify.One_valid -> "empty-relation"
      in
      Certificate.check a b c
      && List.mem (Certificate.describe c)
           [ "empty-relation"; kind; "booleanized(" ^ kind ^ ")" ]
    | None -> false
  in
  per_class (Printf.sprintf "formula route correct on %s targets") (fun (a, b) ->
      let outcome = Uniform.solve a b in
      outcome_matches a b outcome
      && (match outcome with Uniform.No_hom c -> refutation_checks a b c | _ -> true)
      &&
      match Booleanize.solve a b with
      | Booleanize.Hom h -> Homomorphism.is_homomorphism a b h
      | Booleanize.No_hom c -> (not (brute_force_exists a b)) && refutation_checks a b c
      | Booleanize.Not_schaefer _ -> false)
  @ per_class (Printf.sprintf "direct route correct on %s targets") (fun (a, b) ->
        match (Oracle.Schaefer_direct.solve a b, Classify.classify b) with
        | Oracle.Schaefer_direct.Hom h, _ ->
          Homomorphism.is_homomorphism a b h && brute_force_exists a b
        | Oracle.Schaefer_direct.No_hom, _ -> not (brute_force_exists a b)
        | Oracle.Schaefer_direct.Not_applicable _, Some Classify.Affine ->
          (* The paper gives no direct affine algorithm. *)
          true
        | Oracle.Schaefer_direct.Not_applicable _, _ -> false)
  @ [
      Alcotest.test_case "non-Boolean target not applicable" `Quick (fun () ->
          match Uniform.solve (path 2) (clique 3) with
          | Uniform.Not_applicable _ -> ()
          | _ -> Alcotest.fail "expected Not_applicable");
      Alcotest.test_case "1-in-3 SAT target not Schaefer" `Quick (fun () ->
          let v = Vocabulary.create [ ("R", 3) ] in
          let b =
            Structure.of_relations v ~size:2
              [ ("R", Boolean_relation.tuples one_in_three) ]
          in
          let a = Structure.of_relations v ~size:3 [ ("R", [ [| 0; 1; 2 |] ]) ] in
          (match Uniform.solve a b with
          | Uniform.Not_applicable _ -> ()
          | _ -> Alcotest.fail "expected Not_applicable");
          match Oracle.Schaefer_direct.solve a b with
          | Oracle.Schaefer_direct.Not_applicable _ -> ()
          | _ -> Alcotest.fail "expected Not_applicable");
    ]

(* ------------------------------------------------------------------ *)
(* Booleanization (Lemma 3.5)                                           *)
(* ------------------------------------------------------------------ *)

let booleanize_tests =
  [
    Alcotest.test_case "bits_needed" `Quick (fun () ->
        check_int "1" 1 (Booleanize.bits_needed 1);
        check_int "2" 1 (Booleanize.bits_needed 2);
        check_int "3" 2 (Booleanize.bits_needed 3);
        check_int "4" 2 (Booleanize.bits_needed 4);
        check_int "5" 3 (Booleanize.bits_needed 5));
    Alcotest.test_case "2-colorability via Booleanization (Example 3.7)" `Quick (fun () ->
        (match Booleanize.solve (undirected_cycle 6) k2 with
        | Booleanize.Hom h -> check "valid" true (Homomorphism.is_homomorphism (undirected_cycle 6) k2 h)
        | _ -> Alcotest.fail "expected hom");
        match Booleanize.solve (undirected_cycle 5) k2 with
        | Booleanize.No_hom _ -> ()
        | _ -> Alcotest.fail "expected no hom");
    Alcotest.test_case "CSP(C4) via Booleanization (Example 3.8)" `Quick (fun () ->
        let c4 = directed_cycle 4 in
        (* directed C8 -> C4 exists; directed C6 -> C4 does not. *)
        (match Booleanize.solve (directed_cycle 8) c4 with
        | Booleanize.Hom h -> check "valid" true (Homomorphism.is_homomorphism (directed_cycle 8) c4 h)
        | _ -> Alcotest.fail "expected hom");
        match Booleanize.solve (directed_cycle 6) c4 with
        | Booleanize.No_hom _ -> ()
        | _ -> Alcotest.fail "expected no hom");
    Alcotest.test_case "encoded target of C4 is affine" `Quick (fun () ->
        let bb = Booleanize.encode_target (directed_cycle 4) in
        check "affine" true
          (List.mem Classify.Affine (Classify.structure_classes bb)));
    qtest ~count:120 "booleanization preserves hom existence"
      (arbitrary_pair ~max_size_a:3 ~max_size_b:4 ~max_tuples:3 ())
      (fun (a, b) ->
        let ab, bb = Booleanize.encode_pair a b in
        brute_force_exists a b = Homomorphism.exists ab bb);
    qtest ~count:120 "booleanize solve is sound and complete when applicable"
      (arbitrary_pair ~max_size_a:3 ~max_size_b:4 ~max_tuples:3 ())
      (fun (a, b) ->
        match Booleanize.solve a b with
        | Booleanize.Hom h -> Homomorphism.is_homomorphism a b h
        | Booleanize.No_hom c ->
          (not (brute_force_exists a b)) && Certificate.check a b c
        | Booleanize.Not_schaefer _ -> true);
    Alcotest.test_case "decode clamps out-of-range codes and counts them"
      `Quick (fun () ->
        (* |B| = 3 needs 2 bits, so code 3 = 0b11 denotes no element.  A
           Boolean solution may set an unconstrained element's bits to it;
           decode must clamp to element 0 and report how often, rather
           than silently trusting the junk code (the pre-fix behaviour). *)
        let target = path 3 in
        let hb = [| 1; 1; 0; 1 |] in
        let h, clamped = Booleanize.decode_counting ~bits:2 ~target hb in
        check_int "one clamp" 1 clamped;
        check_int "clamped element sent to 0" 0 h.(0);
        check_int "in-range code preserved" 2 h.(1);
        Alcotest.check mapping_testable "decode agrees with decode_counting"
          h
          (fst (Booleanize.decode_counting ~bits:2 ~target hb)));
    Alcotest.test_case "clamp path bumps the telemetry counter" `Quick
      (fun () ->
        let sink, _ = Telemetry.Sink.memory () in
        Telemetry.reset ();
        Telemetry.set_sink (Some sink);
        Fun.protect
          ~finally:(fun () ->
            Telemetry.set_sink None;
            Telemetry.reset ())
          (fun () ->
            ignore
              (Booleanize.decode_counting ~bits:2 ~target:(path 3)
                 [| 1; 1; 0; 1 |]);
            check_int "schaefer.booleanize.clamped" 1
              (Telemetry.counter_total "schaefer.booleanize.clamped")));
  ]


(* ------------------------------------------------------------------ *)
(* Polymorphisms                                                        *)
(* ------------------------------------------------------------------ *)

let polymorphism_tests =
  [
    Alcotest.test_case "named operations compute correctly" `Quick (fun () ->
        check_int "and" 1 (Polymorphism.apply Polymorphism.and2 [ 1; 1 ]);
        check_int "and0" 0 (Polymorphism.apply Polymorphism.and2 [ 1; 0 ]);
        check_int "or" 1 (Polymorphism.apply Polymorphism.or2 [ 0; 1 ]);
        check_int "maj" 1 (Polymorphism.apply Polymorphism.majority3 [ 1; 0; 1 ]);
        check_int "maj0" 0 (Polymorphism.apply Polymorphism.majority3 [ 1; 0; 0 ]);
        check_int "minority" 0 (Polymorphism.apply Polymorphism.minority3 [ 1; 0; 1 ]);
        check_int "neg" 0 (Polymorphism.apply Polymorphism.negation [ 1 ]);
        check_int "proj" 1 (Polymorphism.apply (Polymorphism.projection ~arity:3 1) [ 0; 1; 0 ]));
    Alcotest.test_case "projections preserve everything" `Quick (fun () ->
        check "proj" true (Polymorphism.preserves (Polymorphism.projection ~arity:2 0) one_in_three));
    Alcotest.test_case "xor relation: minority yes, majority yes, and no" `Quick (fun () ->
        let r = Boolean_relation.create 2 [ 0b01; 0b10 ] in
        check "minority" true (Polymorphism.preserves Polymorphism.minority3 r);
        check "majority" true (Polymorphism.preserves Polymorphism.majority3 r);
        check "and" false (Polymorphism.preserves Polymorphism.and2 r);
        check "negation" true (Polymorphism.preserves Polymorphism.negation r));
    Alcotest.test_case "full relation admits all binary operations" `Quick (fun () ->
        check_int "16 ops" 16
          (List.length (Polymorphism.polymorphisms ~arity:2 (full2))));
    Alcotest.test_case "1-in-3 admits only projections among ternary ops" `Quick (fun () ->
        let ops = Polymorphism.polymorphisms ~arity:3 one_in_three in
        (* Schaefer's dichotomy: an NP-complete relation is preserved only by
           (essentially) projections; 1-in-3 admits exactly the 3 ternary
           projections. *)
        check_int "3 ops" 3 (List.length ops));
    Alcotest.test_case "preserves_structure" `Quick (fun () ->
        let b =
          Structure.of_relations (Vocabulary.create [ ("R", 2) ]) ~size:2
            [ ("R", [ [| 0; 1 |]; [| 1; 0 |] ]) ]
        in
        check "minority" true (Polymorphism.preserves_structure Polymorphism.minority3 b);
        check "and" false (Polymorphism.preserves_structure Polymorphism.and2 b));
    qtest ~count:200 "polymorphism view agrees with closure tests"
      (QCheck.make QCheck.Gen.(1 -- 4 >>= fun a -> gen_masks ~arity:a >|= Boolean_relation.create a))
      (fun r ->
        Polymorphism.classes_via_polymorphisms r = Classify.relation_classes r);
  ]

let () =
  Alcotest.run "schaefer"
    [
      ("boolean-relation", boolean_relation_tests);
      ("classify", classify_tests);
      ("define", define_tests);
      ("sat-solvers", sat_tests);
      ("uniform", uniform_tests);
      ("booleanize", booleanize_tests);
      ("polymorphism", polymorphism_tests);
    ]
