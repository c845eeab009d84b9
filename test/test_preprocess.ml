(* The certified shrinking pipeline: retractions must be homomorphisms
   both ways composing to the identity on the shrunk universe, shrinking
   must be idempotent (a core has no smaller core), and — the load-bearing
   property — preprocessing must never change a verdict.  Every witness
   and refutation in here goes through the trusted certificate checker
   via Helpers.certified_verdict. *)

open Relational

let check = Alcotest.(check bool)

let check_int = Alcotest.(check int)

let check_verdict = Alcotest.(check (option bool))

(* Deep retraction search: the solve-time default cap (norm/4) is sized
   for overhead control, not completeness, so the structural unit tests
   ask for an effectively unbounded core search. *)
let deep_core a = Preprocess.target_core ~core_nodes:100_000 a

let core a = (deep_core a).Preprocess.structure

(* A directed triangle with [k] pendant vertices hanging off it: vertex
   [3+i] has the single edge [3+i -> i mod 3].  The core is the triangle
   — each pendant folds onto the triangle predecessor of its anchor. *)
let padded_triangle k =
  let edges =
    [ (0, 1); (1, 2); (2, 0) ]
    @ List.init k (fun i -> (3 + i, i mod 3))
  in
  Helpers.digraph ~size:(3 + k) edges

(* The retraction contract: both maps are homomorphisms and
   [fold . embed = id] on the shrunk universe. *)
let retraction_ok orig (r : Preprocess.retraction) =
  Homomorphism.is_homomorphism orig r.Preprocess.structure r.Preprocess.fold
  && Homomorphism.is_homomorphism r.Preprocess.structure orig
       r.Preprocess.embed
  && Array.for_all
       (fun v -> r.Preprocess.fold.(r.Preprocess.embed.(v)) = v)
       (Array.init (Structure.size r.Preprocess.structure) Fun.id)

(* ------------------------------------------------------------------ *)
(* Folding and core units                                               *)
(* ------------------------------------------------------------------ *)

let unit_tests =
  [
    Alcotest.test_case "padded triangle cores down to the triangle" `Quick
      (fun () ->
        Preprocess.memo_reset ();
        let a = padded_triangle 9 in
        let r = deep_core a in
        check_int "core size" 3 (Structure.size r.Preprocess.structure);
        check "retraction certifies" true (retraction_ok a r));
    Alcotest.test_case "two self-loops fold to one" `Quick (fun () ->
        Preprocess.memo_reset ();
        let a = Helpers.digraph ~size:2 [ (0, 0); (1, 1) ] in
        let r = deep_core a in
        check_int "core size" 1 (Structure.size r.Preprocess.structure);
        check "retraction certifies" true (retraction_ok a r));
    Alcotest.test_case "a loop absorbs its whole component" `Quick (fun () ->
        (* Everything maps onto the looped vertex, so the core is the
           single loop even though no vertex is dominated tuple-wise. *)
        Preprocess.memo_reset ();
        let a = Helpers.digraph ~size:4 [ (0, 0); (1, 0); (0, 2); (2, 3) ] in
        let r = deep_core a in
        check_int "core size" 1 (Structure.size r.Preprocess.structure);
        check "retraction certifies" true (retraction_ok a r));
    Alcotest.test_case "loopless edge does not fold its endpoint" `Quick
      (fun () ->
        (* x -E-> y with no loop anywhere: substituting x := y would need
           E(y,y), so nothing folds and the 1-edge digraph is its own
           core (it has no endomorphism missing a vertex). *)
        Preprocess.memo_reset ();
        let a = Helpers.digraph ~size:2 [ (0, 1) ] in
        check "0 onto 1" false (Homomorphism.folds_onto a 0 1);
        check "1 onto 0" false (Homomorphism.folds_onto a 1 0);
        let r = deep_core a in
        check_int "already a core" 2 (Structure.size r.Preprocess.structure));
    Alcotest.test_case "arity-3 domination folds the duplicate coordinate"
      `Quick (fun () ->
        Preprocess.memo_reset ();
        let vocab = Vocabulary.create [ ("R", 3) ] in
        let a =
          Structure.of_relations vocab ~size:4
            [ ("R", [ [| 0; 1; 2 |]; [| 0; 1; 3 |] ]) ]
        in
        check "3 folds onto 2" true (Homomorphism.folds_onto a 3 2);
        check "2 folds onto 3" true (Homomorphism.folds_onto a 2 3);
        check "0 does not fold onto 1" false (Homomorphism.folds_onto a 0 1);
        let r = deep_core a in
        check_int "one coordinate dropped" 3
          (Structure.size r.Preprocess.structure);
        check "retraction certifies" true (retraction_ok a r));
    Alcotest.test_case "nullary facts survive decomposition" `Quick (fun () ->
        (* A nullary fact P() belongs to every component, so a component
           verdict may rest on it: with P empty in B the answer is Unsat
           no matter what the binary part does. *)
        let vocab = Vocabulary.create [ ("P", 0); ("E", 2) ] in
        let a =
          Structure.of_relations vocab ~size:3
            [ ("P", [ [||] ]); ("E", [ [| 0; 1 |] ]) ]
          (* element 2 is isolated: the source is disconnected *)
        in
        let b_no_p =
          Structure.of_relations vocab ~size:2 [ ("E", [ [| 0; 1 |] ]) ]
        in
        let b_with_p =
          Structure.of_relations vocab ~size:2
            [ ("P", [ [||] ]); ("E", [ [| 0; 1 |]; [| 1; 0 |] ]) ]
        in
        check_verdict "unsat without P" (Some false)
          (Helpers.certified_verdict a b_no_p (Core.Solver.solve a b_no_p));
        check_verdict "sat with P" (Some true)
          (Helpers.certified_verdict a b_with_p
             (Core.Solver.solve a b_with_p)));
    Alcotest.test_case "via-preprocess refutation checks on the original"
      `Quick (fun () ->
        (* Wrap a component refutation by hand and make sure the checker
           replays it against the unshrunk source. *)
        Preprocess.memo_reset ();
        let a =
          Structure.disjoint_union (padded_triangle 4)
            (Helpers.digraph ~size:1 [])
        in
        let b = Helpers.digraph ~size:2 [ (0, 1); (1, 0) ] in
        match Core.Solver.solve a b with
        | { Core.Solver.verdict = Core.Solver.Unsat c; _ } ->
          check "checker accepts" true (Certificate.check a b c)
        | _ -> Alcotest.fail "triangle into K2 must be unsat");
  ]

(* ------------------------------------------------------------------ *)
(* QCheck properties                                                    *)
(* ------------------------------------------------------------------ *)

let property_tests =
  [
    Helpers.qtest ~count:200 "shrinking is idempotent (a core has no smaller core)"
      (Helpers.arbitrary_structure ())
      (fun a ->
        let r1 = deep_core a in
        let r2 = deep_core r1.Preprocess.structure in
        Structure.size r2.Preprocess.structure
        = Structure.size r1.Preprocess.structure);
    Helpers.qtest ~count:300 "a memo hit rebuilds the retraction it stored"
      (Helpers.arbitrary_structure ())
      (fun a ->
        (* The memo keeps only the maps; a textually equal copy of [a]
           must get back the structure induced on [embed]. *)
        Preprocess.memo_reset ();
        let r1 = deep_core a in
        let stored = fst (Preprocess.memo_stats ()) in
        let r2 = deep_core (Structure_text.parse (Structure_text.print a)) in
        stored = 1
        && fst (Preprocess.memo_stats ()) = 1
        && Structure.equal r1.Preprocess.structure r2.Preprocess.structure
        && r1.Preprocess.fold = r2.Preprocess.fold
        && r1.Preprocess.embed = r2.Preprocess.embed);
    Helpers.qtest ~count:300 "every retraction certifies both ways"
      (Helpers.arbitrary_structure ())
      (fun a -> retraction_ok a (deep_core a));
    Helpers.qtest ~count:300 "preprocessed and raw verdicts agree"
      (Helpers.arbitrary_pair ())
      (fun (a, b) ->
        let pre =
          Helpers.certified_verdict a b (Core.Solver.solve a b)
        in
        let raw =
          Helpers.certified_verdict a b
            (Core.Solver.solve ~preprocess:false a b)
        in
        match (pre, raw) with Some x, Some y -> x = y | _ -> true);
    Helpers.qtest ~count:120
      "duplicated-component sources agree (dedup path)"
      (Helpers.arbitrary_pair ())
      (fun (a, b) ->
        let aa = Structure.disjoint_union a a in
        let pre = Helpers.certified_verdict aa b (Core.Solver.solve aa b) in
        let raw =
          Helpers.certified_verdict aa b
            (Core.Solver.solve ~preprocess:false aa b)
        in
        match (pre, raw) with Some x, Some y -> x = y | _ -> true);
    Helpers.qtest ~count:50 "cores of hom-equivalent structures are isomorphic"
      (Helpers.arbitrary_structure ~max_size:3 ~max_tuples:3 ())
      (fun a ->
        let doubled = Structure.disjoint_union a a in
        Homomorphism.isomorphic (core a) (core doubled));
    Helpers.qtest ~count:60 "core is hom-equivalent and minimal-idempotent"
      (Helpers.arbitrary_structure ~max_size:4 ~max_tuples:4 ())
      (fun a ->
        let c = core a in
        Homomorphism.hom_equivalent a c && Structure.size (core c) = Structure.size c);
    Helpers.qtest ~count:60 "padded-core sources agree with raw solving"
      QCheck.(pair (int_bound 8) (Helpers.arbitrary_structure ~max_rels:1 ()))
      (fun (k, b) ->
        (* b ranges over arbitrary R0-structures; rename its relation to
           E only when arities line up, else fall back to K2. *)
        let b =
          if Vocabulary.symbols (Structure.vocabulary b) = [ ("R0", 2) ] then
            Structure.rename_relations b (fun _ -> "E")
          else Helpers.digraph ~size:2 [ (0, 1); (1, 0) ]
        in
        let a = padded_triangle k in
        let pre = Helpers.certified_verdict a b (Core.Solver.solve a b) in
        let raw =
          Helpers.certified_verdict a b
            (Core.Solver.solve ~preprocess:false a b)
        in
        match (pre, raw) with Some x, Some y -> x = y | _ -> true);
  ]

(* ------------------------------------------------------------------ *)
(* Fold stage against the rescan-and-copy oracle                        *)
(* ------------------------------------------------------------------ *)

(* Several components over {P/0, E/2, T/3}: repeated picks give
   self-loops and duplicate coordinates, empty one-element parts and the
   trailing extra elements are isolated, and P() is a nullary fact. *)
let gen_fold_structure st =
  let rint k = Random.State.int st k in
  let vocab = Vocabulary.create [ ("P", 0); ("E", 2); ("T", 3) ] in
  let parts = List.init (1 + rint 3) (fun _ -> 1 + rint 5) in
  let size = List.fold_left ( + ) (rint 3) parts in
  let edges = ref [] and triples = ref [] and off = ref 0 in
  List.iter
    (fun k ->
      let pick () = !off + rint k in
      for _ = 1 to rint ((2 * k) + 1) do
        edges := [| pick (); pick () |] :: !edges
      done;
      for _ = 1 to rint (k + 1) do
        triples := [| pick (); pick (); pick () |] :: !triples
      done;
      off := !off + k)
    parts;
  Structure.of_relations vocab ~size
    [
      ("P", if rint 2 = 0 then [ [||] ] else []);
      ("E", !edges);
      ("T", !triples);
    ]

let arbitrary_fold_structure =
  QCheck.make ~print:Structure_text.print gen_fold_structure

(* Both stages under one fresh budget each: the new stage's retraction,
   fold count and spend next to the oracle's. *)
let run_both ?max_nodes a =
  let budget () =
    match max_nodes with
    | None -> Budget.create ()
    | Some n -> Budget.create ~max_nodes:n ()
  in
  let b_new = budget () and b_old = budget () in
  let r, folded, _ = Preprocess.fold_stage ~budget:b_new a in
  let st, fold, embed, folded_old, _ = Oracle.Fold_rescan.run ~budget:b_old a in
  ( (r, folded, Budget.spent b_new),
    ({ Preprocess.structure = st; fold; embed }, folded_old, Budget.spent b_old) )

let fold_tests =
  [
    Helpers.qtest ~count:300 "fold stage matches the rescan oracle"
      arbitrary_fold_structure (fun a ->
        let (r, folded, spent), (o, folded_old, spent_old) = run_both a in
        Structure_text.print r.Preprocess.structure
        = Structure_text.print o.Preprocess.structure
        && r.Preprocess.fold = o.Preprocess.fold
        && r.Preprocess.embed = o.Preprocess.embed
        && folded = folded_old && spent <= spent_old);
    Helpers.qtest ~count:300 "budgeted fold stage spends no more than the oracle"
      QCheck.(pair arbitrary_fold_structure (int_bound 40))
      (fun (a, max_nodes) ->
        let (r, folded, spent), (_, folded_old, spent_old) =
          run_both ~max_nodes a
        in
        spent <= spent_old && folded >= folded_old && retraction_ok a r);
    Alcotest.test_case "shrinking a pendant tree allocates linearly" `Quick
      (fun () ->
        (* C5 with an 800-vertex random tree: every tree vertex folds.  A
           stage that copies the structure per fold allocates ~180M
           words here; one pass with one final copy stays well under a
           megaword. *)
        let a = Testkit.Workloads.pendant_cycle ~seed:1 ~cycle:5 800 in
        Preprocess.memo_reset ();
        let words () =
          let minor, _, major = Gc.counters () in
          minor +. major
        in
        let before = words () in
        let src = Preprocess.shrink_source a in
        let allocated = words () -. before in
        check_int "shrunk to the cycle" 5
          src.Preprocess.stats.Preprocess.shrunk_elements;
        if allocated >= 5e6 then
          Alcotest.failf "shrink_source allocated %.0f words (bound 5M)"
            allocated);
  ]

(* ------------------------------------------------------------------ *)
(* Budget discipline                                                    *)
(* ------------------------------------------------------------------ *)

let budget_tests =
  [
    Alcotest.test_case "starved pipeline degrades, never lies" `Quick
      (fun () ->
        (* One node of budget: the pipeline must bail out (counted, not
           raised), hand back a sound partial shrink, and the solve must
           answer Unknown or the true verdict — never the wrong one. *)
        Preprocess.memo_reset ();
        let a = padded_triangle 8 in
        let budget = Budget.create ~max_nodes:1 () in
        let src = Preprocess.shrink_source ~budget a in
        check "some stage bailed" true
          (src.Preprocess.stats.Preprocess.bailouts > 0);
        Array.iter
          (fun (p : Preprocess.part) ->
            check "partial shrink still certifies" true
              (retraction_ok p.Preprocess.piece p.Preprocess.shrink))
          src.Preprocess.parts;
        let b = Helpers.digraph ~size:2 [ (0, 1); (1, 0) ] in
        let starved = Budget.create ~max_nodes:1 () in
        match
          (Core.Solver.solve ~budget:starved a b).Core.Solver.verdict
        with
        | Core.Solver.Unknown _ | Core.Solver.Unsat _ -> ()
        | Core.Solver.Sat _ ->
          Alcotest.fail "starved solve claimed sat for triangle into K2");
    Alcotest.test_case "tight budgets never flip a verdict" `Quick (fun () ->
        (* Sweep node limits from starvation up past completion on a
           shrinkable instance: every definite answer must match the
           unbudgeted one. *)
        let a = padded_triangle 6 in
        let b = Helpers.digraph ~size:3 [ (0, 1); (1, 2); (2, 0) ] in
        let reference =
          Helpers.certified_verdict a b
            (Core.Solver.solve ~preprocess:false a b)
        in
        check_verdict "reference is sat" (Some true) reference;
        List.iter
          (fun n ->
            Preprocess.memo_reset ();
            let budget = Budget.create ~max_nodes:n () in
            match
              Helpers.certified_verdict a b
                (Core.Solver.solve ~budget a b)
            with
            | None -> ()
            | some -> check_verdict (Printf.sprintf "nodes=%d" n) reference some)
          [ 1; 2; 4; 8; 16; 64; 256; 4096; 100_000 ]);
  ]

let core_tests =
  Helpers.
    [
      Alcotest.test_case "core of even cycle is an edge" `Quick (fun () ->
          check_int "size 2" 2 (Structure.size (core (undirected_cycle 6))));
      Alcotest.test_case "core of odd cycle is itself" `Quick (fun () ->
          check_int "size 5" 5 (Structure.size (core (undirected_cycle 5))));
      Alcotest.test_case "core of disjoint union of K2 and K3 is K3" `Quick (fun () ->
          let g = Structure.disjoint_union k2 (clique 3) in
          check_int "size 3" 3 (Structure.size (core g)));
      Alcotest.test_case "cores are unique up to isomorphism" `Quick (fun () ->
          (* core(A + A) must be isomorphic to core(A). *)
          List.iter
            (fun a ->
              let c1 = core a in
              let c2 = core (Structure.disjoint_union a a) in
              check "isomorphic cores" true (Homomorphism.isomorphic c1 c2))
            [ undirected_cycle 5; path 4; Structure.disjoint_union k2 (clique 3) ]);
      Alcotest.test_case "target_core returns a retraction" `Quick (fun () ->
          let g = Structure.disjoint_union (path 3) (digraph ~size:1 [ (0, 0) ]) in
          let r = deep_core g in
          check_int "core is the loop" 1 (Structure.size r.Preprocess.structure);
          check "retraction is a hom" true
            (Homomorphism.is_homomorphism g r.Preprocess.structure r.Preprocess.fold));
    ]

let () =
  Alcotest.run "preprocess"
    [
      ("units", unit_tests);
      ("properties", property_tests);
      ("fold", fold_tests);
      ("budgets", budget_tests);
      ("core", core_tests);
    ]
