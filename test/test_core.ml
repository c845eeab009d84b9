open Relational
open Core
open Testkit
open Helpers

let check = Alcotest.(check bool)

let check_int = Alcotest.(check int)

(* ------------------------------------------------------------------ *)
(* CSP formulation                                                      *)
(* ------------------------------------------------------------------ *)

let neq_constraint x y k =
  let allowed = ref [] in
  for a = 0 to k - 1 do
    for b = 0 to k - 1 do
      if a <> b then allowed := [| a; b |] :: !allowed
    done
  done;
  { Csp.scope = [| x; y |]; allowed = !allowed }

let csp_tests =
  [
    Alcotest.test_case "graph coloring as a CSP" `Quick (fun () ->
        (* Triangle, 3 colors: satisfiable; 2 colors: not. *)
        let triangle k =
          Csp.make ~num_variables:3 ~domain_size:k
            [ neq_constraint 0 1 k; neq_constraint 1 2 k; neq_constraint 0 2 k ]
        in
        (match Csp.solve (triangle 3) with
        | Some assignment -> check "satisfies" true (Csp.satisfies (triangle 3) assignment)
        | None -> Alcotest.fail "expected solution");
        check "2 colors fail" true (Csp.solve (triangle 2) = None));
    Alcotest.test_case "round trip through homomorphism form" `Quick (fun () ->
        let csp =
          Csp.make ~num_variables:2 ~domain_size:2
            [ { Csp.scope = [| 0; 1 |]; allowed = [ [| 0; 1 |] ] } ]
        in
        let a, b = Csp.to_homomorphism csp in
        let back = Csp.of_homomorphism a b in
        check_int "variables" 2 back.Csp.num_variables;
        check_int "domain" 2 back.Csp.domain_size;
        check "solution preserved" true (Csp.solve back <> None));
    Alcotest.test_case "validation" `Quick (fun () ->
        check "bad variable" true
          (try
             ignore
               (Csp.make ~num_variables:1 ~domain_size:2
                  [ { Csp.scope = [| 3 |]; allowed = [] } ]);
             false
           with Invalid_argument _ -> true));
    qtest ~count:150 "csp solve equals hom existence"
      (arbitrary_pair ~max_size_a:3 ~max_size_b:3 ~max_tuples:3 ())
      (fun (a, b) ->
        let csp = Csp.of_homomorphism a b in
        (Csp.solve csp <> None) = brute_force_exists a b);
    qtest ~count:150 "csp solutions satisfy"
      (arbitrary_pair ~max_size_a:3 ~max_size_b:3 ~max_tuples:3 ())
      (fun (a, b) ->
        let csp = Csp.of_homomorphism a b in
        match Csp.solve csp with
        | None -> true
        | Some assignment -> Csp.satisfies csp assignment);
  ]

(* ------------------------------------------------------------------ *)
(* Unified solver                                                       *)
(* ------------------------------------------------------------------ *)

let solver_tests =
  [
    Alcotest.test_case "schaefer route picked for boolean targets" `Quick (fun () ->
        let b = Workloads.random_schaefer_target ~seed:7 Schaefer.Classify.Horn ~arities:[ 2 ] in
        let a = Workloads.random_structure ~seed:3 (Structure.vocabulary b) ~size:5 ~tuples:4 in
        (* Preprocessing off: this pins the dispatcher's route choice, and
           on this instance the AC-4 singleton shortcut would decide
           first. *)
        match (Solver.solve ~preprocess:false a b).Solver.route with
        | Solver.Schaefer_direct _ -> ()
        | r -> Alcotest.fail ("unexpected route " ^ Solver.route_name r));
    Alcotest.test_case "booleanized route for C4 targets" `Quick (fun () ->
        let c4 = Workloads.directed_cycle 4 in
        let r = Solver.solve (Workloads.directed_cycle 8) c4 in
        (match r.Solver.route with
        | Solver.Booleanized _ -> ()
        | r -> Alcotest.fail ("unexpected route " ^ Solver.route_name r));
        check "answer yes" true (Solver.answer r <> None);
        let r6 = Solver.solve (Workloads.directed_cycle 6) c4 in
        check "answer no" true
          (certified_verdict (Workloads.directed_cycle 6) c4 r6 = Some false));
    Alcotest.test_case "acyclic route for path sources" `Quick (fun () ->
        (* Disable booleanization so the source-side route is exercised. *)
        let r = Solver.solve ~booleanize_threshold:0 (Workloads.path 6) (Workloads.clique 3) in
        match r.Solver.route with
        | Solver.Acyclic -> check "found" true (Solver.answer r <> None)
        | r -> Alcotest.fail ("unexpected route " ^ Solver.route_name r));
    Alcotest.test_case "treewidth route for cyclic bounded-width sources" `Quick (fun () ->
        let a = Workloads.undirected_cycle 7 in
        let r = Solver.solve ~booleanize_threshold:0 a (Workloads.clique 3) in
        match r.Solver.route with
        | Solver.Bounded_treewidth w ->
          check "width 2" true (w = 2);
          check "3-colorable" true (Solver.answer r <> None)
        | r -> Alcotest.fail ("unexpected route " ^ Solver.route_name r));
    Alcotest.test_case "consistency refutation on uncolorable dense graphs" `Quick (fun () ->
        (* K5 -> K4: treewidth 4 exceeds the cap; 2-consistency cannot refute
           k-coloring, so this lands in backtracking... unless we raise k. *)
        let r =
          Solver.solve ~booleanize_threshold:0 ~max_treewidth:3 ~consistency_k:5
            (Workloads.clique 5) (Workloads.clique 4)
        in
        (match r.Solver.route with
        | Solver.Consistency_refutation 5 -> ()
        | r -> Alcotest.fail ("unexpected route " ^ Solver.route_name r));
        check "refuted" true
          (certified_verdict (Workloads.clique 5) (Workloads.clique 4) r
          = Some false));
    Alcotest.test_case "backtracking fallback" `Quick (fun () ->
        let r =
          Solver.solve ~booleanize_threshold:0 ~max_treewidth:1 ~consistency_k:1
            (Workloads.clique 4) (Workloads.clique 4)
        in
        match r.Solver.route with
        | Solver.Backtracking -> check "found" true (Solver.answer r <> None)
        | r -> Alcotest.fail ("unexpected route " ^ Solver.route_name r));
    Alcotest.test_case "containment dispatch" `Quick (fun () ->
        let q1 = Cq.Parser.parse "Q(X) :- E(X, Z), E(Z, W)." in
        let q2 = Cq.Parser.parse "Q(X) :- E(X, Z)." in
        let yes = Solver.solve_containment q1 q2 in
        let no = Solver.solve_containment q2 q1 in
        check "contained" true (Solver.answer yes <> None);
        check "not contained" false (Solver.answer no <> None));
    qtest ~count:200 "unified solver agrees with brute force, certified"
      (arbitrary_pair ~max_size_a:4 ~max_size_b:3 ~max_tuples:4 ())
      (fun (a, b) ->
        (* [certified_verdict] also runs the verdict's certificate through
           the trusted checker. *)
        certified_verdict a b (Solver.solve a b) = Some (brute_force_exists a b));
    qtest ~count:100 "solver route answers agree across configurations"
      (arbitrary_pair ~max_size_a:4 ~max_size_b:3 ~max_tuples:4 ())
      (fun (a, b) ->
        let r1 = Solver.solve ~booleanize_threshold:0 a b in
        let r2 = Solver.solve ~max_treewidth:0 ~consistency_k:3 a b in
        (Solver.answer r1 <> None) = (Solver.answer r2 <> None));
    Alcotest.test_case "over-capacity k-consistency declines" `Quick (fun () ->
        (* K5 into K5 padded with 8,188 isolated elements: the 2-pebble
           codes exceed the encoding capacity, so the k-consistency route
           must decline at once and leave backtracking to decide. *)
        let read path =
          Structure_text.parse (In_channel.with_open_text path In_channel.input_all)
        in
        let a = read "cli/k5.st" and b = read "cli/k5pad.st" in
        List.iter
          (fun preprocess ->
            let r =
              Solver.solve ~preprocess ~budget:(Budget.create ~max_nodes:1_000_000 ()) a b
            in
            (match r.Solver.verdict with
            | Solver.Sat h ->
              check "witness checks" true (Certificate.check a b (Certificate.Witness h))
            | _ -> Alcotest.fail "expected a homomorphism");
            check "2-consistency inapplicable" true
              (List.exists
                 (fun (at : Solver.attempt) ->
                   at.route = Solver.Consistency_refutation 2
                   && at.outcome = Solver.Inapplicable)
                 r.Solver.attempts))
          [ true; false ]);
    Alcotest.test_case "booleanized route runs under its budget" `Quick (fun () ->
        (* Directed C400 into C4: the guard only classifies the encoded
           target, so the Booleanized solve itself meets the node limit. *)
        let r =
          Solver.solve ~preprocess:false ~budget:(Budget.create ~max_nodes:5 ())
            (Workloads.directed_cycle 400) (Workloads.directed_cycle 4)
        in
        match
          List.find_opt
            (fun (at : Solver.attempt) ->
              match at.route with Solver.Booleanized _ -> true | _ -> false)
            r.Solver.attempts
        with
        | Some { outcome = Solver.Exhausted Budget.Node_limit; _ } -> ()
        | Some at ->
          Alcotest.failf "booleanized attempt %s after %d nodes"
            (Solver.outcome_name at.outcome) at.nodes
        | None -> Alcotest.fail "no booleanized attempt");
    Alcotest.test_case "head routes decide the raw source unshrunk" `Quick (fun () ->
        (* A tractable template or an acyclic source decides before the
           boundary, so no [Preprocess] attempt is recorded. *)
        let two_sat =
          Structure_text.parse
            "size 4\nrel A 2\nrel B 2\nrel C 2\nA 0 1\nB 1 2\nC 2 3\nB 3 0\nA 3 1\n"
        and sat2 =
          Structure_text.parse
            "size 2\nrel A 2\nrel B 2\nrel C 2\nA 0 1\nA 1 0\nA 1 1\nB 0 0\nB 1 0\n\
             B 1 1\nC 0 0\nC 0 1\nC 1 0\n"
        and tree =
          let edges = [ (0, 1); (0, 2); (1, 3); (1, 4); (2, 5); (5, 6) ] in
          digraph ~size:7 (edges @ List.map (fun (u, v) -> (v, u)) edges)
        in
        List.iter
          (fun (name, a, b, sat) ->
            let r = Solver.solve a b in
            check (name ^ ": verdict") true (certified_verdict a b r = Some sat);
            check (name ^ ": no preprocess attempt") true
              (List.for_all
                 (fun (at : Solver.attempt) -> at.route <> Solver.Preprocess)
                 r.Solver.attempts))
          [
            ("bipartite grid -> K2", Workloads.grid 3 4, Workloads.k2, true);
            ("tree -> K3", tree, Workloads.clique 3, true);
            ("2-SAT", two_sat, sat2, true);
          ]);
    Alcotest.test_case "acyclic route on a reshaped part" `Quick (fun () ->
        (* C4 is cyclic and K3 is an NP-complete template, so no head
           route decides; C4 folds onto one edge, which the tail's
           acyclic entry decides.  Unshrunk, the tail has no acyclic
           entry. *)
        let c4 = Workloads.undirected_cycle 4 and k3 = Workloads.clique 3 in
        List.iter
          (fun (preprocess, route) ->
            let r = Solver.solve ~preprocess c4 k3 in
            let label = Printf.sprintf "preprocess=%b" preprocess in
            check (label ^ ": verdict") true (certified_verdict c4 k3 r = Some true);
            check (label ^ ": route") true (r.Solver.route = route);
            check_int (label ^ ": acyclic attempts") (if preprocess then 1 else 0)
              (List.length
                 (List.filter
                    (fun (at : Solver.attempt) -> at.route = Solver.Acyclic)
                    r.Solver.attempts)))
          [ (true, Solver.Acyclic); (false, Solver.Bounded_treewidth 2) ]);
  ]

(* ------------------------------------------------------------------ *)
(* Backtracking refutations and checker rejections                      *)
(* ------------------------------------------------------------------ *)

(* Random pairs over two binary relations: parallel E and F constraints
   make the 2-pebble game prune values arc consistency keeps, and a
   dense five-element target leaves most refutations to backtracking.
   Rare self-loops give facts over one element, which rule values out
   without any derivation. *)
let ef_vocab = Vocabulary.create [ ("E", 2); ("F", 2) ]

let random_ef st ~n ~p =
  Structure.of_relations ef_vocab ~size:n
    (List.map
       (fun name ->
         ( name,
           List.concat_map
             (fun i ->
               List.filter_map
                 (fun j ->
                   if Random.State.float st 1.0 < (if i = j then 0.05 else p) then
                     Some [| i; j |]
                   else None)
                 (List.init n Fun.id))
             (List.init n Fun.id) ))
       [ "E"; "F" ])

let rec search_tree_of = function
  | Certificate.Search_tree { lemmas; tree } -> Some (lemmas, tree)
  | Certificate.Via_preprocess { inner; _ } -> search_tree_of inner
  | _ -> None

let backtracking_attempt (r : Solver.result) =
  List.find (fun (at : Solver.attempt) -> at.route = Solver.Backtracking) r.Solver.attempts

(* [b] plus one element that lies in every relation in every
   combination: the constant map onto it is a homomorphism from any
   source over [b]'s vocabulary. *)
let with_absorbing_element b =
  let u = Structure.size b in
  let rec tuples k =
    if k = 0 then [ [] ]
    else List.concat_map (fun t -> List.init (u + 1) (fun v -> v :: t)) (tuples (k - 1))
  in
  let vocab = Structure.vocabulary b in
  List.fold_left
    (fun acc (name, k) ->
      List.fold_left
        (fun acc t ->
          if k = 0 || List.mem u t then Structure.add_tuple acc name (Array.of_list t)
          else acc)
        acc (tuples k))
    (Structure.fold_tuples
       (fun name t acc -> Structure.add_tuple acc name t)
       b
       (Structure.create vocab ~size:(u + 1)))
    (Vocabulary.symbols vocab)

(* Rewrite the first node, in preorder, that [f] rewrites. *)
let rec rewrite f (t : Certificate.search_tree) =
  match f t with
  | Some t' -> Some t'
  | None -> (
    match t with
    | Conflict _ -> None
    | Prune p -> Option.map (fun rest -> Certificate.Prune { p with rest }) (rewrite f p.rest)
    | Split s ->
      let rec first = function
        | [] -> None
        | (v, c) :: rest -> (
          match rewrite f c with
          | Some c' -> Some ((v, c') :: rest)
          | None -> Option.map (fun rest -> (v, c) :: rest) (first rest))
      in
      Option.map (fun children -> Certificate.Split { s with children }) (first s.children))

(* The search tree of an unsat clique pair that only backtracking
   decides: no preprocessing, and a treewidth cap of 0. *)
let clique_tree n m =
  let a = Workloads.clique n and b = Workloads.clique m in
  let r = Solver.solve ~preprocess:false ~max_treewidth:0 a b in
  match (r.Solver.route, r.Solver.verdict) with
  | Solver.Backtracking, Solver.Unsat (Certificate.Search_tree { lemmas = []; tree }) ->
    (a, b, tree)
  | _ -> Alcotest.failf "K%d -> K%d: expected a lemma-free backtracking refutation" n m

let certificate_tests =
  [
    Alcotest.test_case "backtracking refutes with its one MAC pass, at k = 2 and 3, \
                        sequential and raced"
      `Quick (fun () ->
        let configs = [ (2, 1); (2, 2); (3, 1); (3, 2) ] in
        let unsat = ref 0 and lemmas = ref 0 in
        let decided = Array.make (List.length configs) 0 in
        for seed = 0 to 319 do
          let st = Random.State.make [| seed |] in
          let a = random_ef st ~n:7 ~p:0.4 in
          let b = random_ef st ~n:5 ~p:0.6 in
          let verdicts =
            List.mapi
              (fun i (k, threads) ->
                let r = Solver.solve ~consistency_k:k ~threads a b in
                let label = Printf.sprintf "seed %d, k = %d, threads = %d" seed k threads in
                (match (r.Solver.route, r.Solver.verdict) with
                | Solver.Backtracking, Solver.Unsat c -> (
                  decided.(i) <- decided.(i) + 1;
                  match search_tree_of c with
                  | Some (l, _) -> if l <> [] then incr lemmas
                  | None -> Alcotest.failf "%s: backtracking refuted without its tree" label)
                | _ -> ());
                (match certified_verdict a b r with
                | Some v -> v
                | None -> Alcotest.failf "%s: unknown without a budget" label))
              configs
          in
          check (Printf.sprintf "seed %d: configurations agree" seed) true
            (List.for_all (( = ) (List.hd verdicts)) verdicts);
          if not (List.hd verdicts) then incr unsat;
          (* The route's node count is the MAC search's alone: no second
             pass spends from its slice. *)
          let r = Solver.solve ~preprocess:false a b in
          if r.Solver.route = Solver.Backtracking then begin
            let keep =
              match Pebble.Game.run ~k:2 a b with
              | Some { family; _ } -> fun x v -> Pebble.Game.mem family [ (x, v) ]
              | None -> fun _ _ -> true
            in
            check_int (Printf.sprintf "seed %d: backtracking nodes" seed)
              (snd (Homomorphism.find_with_stats ~restrict:keep a b)).Homomorphism.nodes
              (backtracking_attempt r).Solver.nodes
          end
        done;
        check "300 unsat pairs" true (!unsat >= 300);
        List.iteri
          (fun i (k, threads) ->
            check (Printf.sprintf "k = %d, threads = %d: backtracking refutes" k threads)
              true (decided.(i) > 0))
          configs;
        check "some refutation needs lemmas" true (!lemmas > 0));
    Alcotest.test_case "a restriction to partial homomorphisms needs no lemmas" `Quick
      (fun () ->
        (* F(3, 3) forces element 3 onto B's one F-loop.  The 1-pebble
           game removes the other two values, which arc consistency keeps,
           and logs no death, so the tree carries no lemmas. *)
        let a =
          Structure_text.parse
            "size 5\nrel E 2\nrel F 2\nE 0 3\nE 1 3\nE 3 1\nE 3 4\nE 4 1\nF 0 4\nF 1 0\n\
             F 1 3\nF 2 0\nF 2 1\nF 3 2\nF 3 3\nF 3 4\nF 4 2\nF 4 3\n"
        and b =
          Structure_text.parse
            "size 3\nrel E 2\nrel F 2\nE 0 0\nE 0 2\nE 2 0\nE 2 1\nF 0 1\nF 0 2\n\
             F 1 1\nF 1 2\nF 2 0\n"
        in
        let r = Solver.solve ~preprocess:false ~consistency_k:1 a b in
        check "backtracking" true (r.Solver.route = Solver.Backtracking);
        check "refuted" true (certified_verdict a b r = Some false));
    qtest ~count:300 "the checker rejects a refutation once the pair is sat"
      (arbitrary_pair ~max_size_a:5 ~max_size_b:3 ~max_tuples:6 ())
      (fun (a, b) ->
        match (Solver.solve a b).Solver.verdict with
        | Solver.Unsat c ->
          let b' = with_absorbing_element b in
          Homomorphism.exists a b' && Certificate.check a b c && not (Certificate.check a b' c)
        | Solver.Sat _ | Solver.Unknown _ -> true);
    Alcotest.test_case "the checker rejects mutated search trees" `Quick (fun () ->
        List.iter
          (fun (n, m) ->
            let a, b, tree = clique_tree n m in
            let rejects what mutated =
              match mutated with
              | None -> Alcotest.failf "K%d -> K%d: no place for %s" n m what
              | Some tree ->
                check
                  (Printf.sprintf "K%d -> K%d: %s rejected" n m what)
                  false
                  (Certificate.check a b (Certificate.Search_tree { lemmas = []; tree }))
            in
            check "original accepted" true
              (Certificate.check a b (Certificate.Search_tree { lemmas = []; tree }));
            rejects "a dropped split child"
              (rewrite
                 (function
                   | Split ({ children = _ :: rest; _ } as s) -> Some (Split { s with children = rest })
                   | _ -> None)
                 tree);
            rejects "a dropped propagation step"
              (rewrite (function Prune { rest; _ } -> Some rest | _ -> None) tree);
            rejects "a step justified by another fact"
              (rewrite
                 (function
                   | Prune p ->
                     let other =
                       Structure.fold_tuples
                         (fun symbol fact acc ->
                           if acc = None && not (Array.mem p.elem fact) then
                             Some { Certificate.symbol; fact }
                           else acc)
                         a None
                     in
                     Option.map (fun origin -> Certificate.Prune { p with origin }) other
                   | _ -> None)
                 tree);
            rejects "a pruned supported value"
              (Some
                 (Certificate.Prune
                    {
                      origin = { symbol = "E"; fact = [| 0; 1 |] };
                      elem = 0;
                      value = 0;
                      rest = tree;
                    })))
          [ (4, 3); (5, 4) ];
        (* Parallel E and F constraints: the 2-pebble game removes a
           value arc consistency keeps, so the tree holds only with the
           game's log as lemmas. *)
        let a =
          Structure_text.parse
            "size 5\nrel E 2\nrel F 2\nE 0 1\nE 1 3\nE 2 0\nE 4 0\nE 4 1\nE 4 2\n\
             F 1 2\nF 2 1\nF 3 0\nF 3 2\nF 3 4\nF 4 2\nF 4 3\n"
        and b =
          Structure_text.parse
            "size 3\nrel E 2\nrel F 2\nE 0 2\nE 1 2\nE 2 0\nE 2 1\nF 0 1\nF 0 2\n\
             F 1 0\nF 1 2\nF 2 0\n"
        in
        match (Solver.solve ~preprocess:false a b).Solver.verdict with
        | Solver.Unsat (Certificate.Search_tree { lemmas = _ :: _ as lemmas; tree }) ->
          check "with lemmas accepted" true
            (Certificate.check a b (Certificate.Search_tree { lemmas; tree }));
          check "without lemmas rejected" false
            (Certificate.check a b (Certificate.Search_tree { lemmas = []; tree }))
        | _ -> Alcotest.fail "expected a lemma-carrying search tree");
  ]

(* ------------------------------------------------------------------ *)
(* Workloads                                                            *)
(* ------------------------------------------------------------------ *)

let workload_tests =
  [
    Alcotest.test_case "generators are deterministic in the seed" `Quick (fun () ->
        let g1 = Workloads.erdos_renyi ~seed:42 ~n:10 ~p:0.3 in
        let g2 = Workloads.erdos_renyi ~seed:42 ~n:10 ~p:0.3 in
        check "equal" true (Structure.equal g1 g2);
        let g3 = Workloads.erdos_renyi ~seed:43 ~n:10 ~p:0.3 in
        check "different seed differs" false (Structure.equal g1 g3));
    Alcotest.test_case "partial k-trees have treewidth at most k" `Quick (fun () ->
        List.iter
          (fun (seed, k) ->
            let s = Workloads.random_partial_ktree ~seed ~n:8 ~k ~keep:0.8 in
            let g =
              Treewidth.Graph.of_edges ~size:(Structure.size s) (Structure.gaifman_edges s)
            in
            check "bounded" true (Treewidth.Elimination.treewidth_exact g <= k))
          [ (1, 1); (2, 2); (3, 2); (4, 3) ]);
    Alcotest.test_case "schaefer targets classify as requested" `Quick (fun () ->
        List.iter
          (fun cls ->
            let b = Workloads.random_schaefer_target ~seed:5 cls ~arities:[ 2; 3 ] in
            check
              (Schaefer.Classify.class_name cls)
              true
              (List.mem cls (Schaefer.Classify.structure_classes b)))
          [ Schaefer.Classify.Zero_valid; Schaefer.Classify.One_valid;
            Schaefer.Classify.Horn; Schaefer.Classify.Dual_horn;
            Schaefer.Classify.Bijunctive; Schaefer.Classify.Affine ]);
    Alcotest.test_case "one-in-three target is not Schaefer" `Quick (fun () ->
        check "no class" true
          (Schaefer.Classify.structure_classes Workloads.one_in_three_target = []));
    Alcotest.test_case "chain queries are two-atom when short" `Quick (fun () ->
        let q = Workloads.chain_query 2 in
        check "two-atom" true (Cq.Query.is_two_atom q);
        check "safe" true (Cq.Query.is_safe q));
    Alcotest.test_case "random two-atom queries stay two-atom" `Quick (fun () ->
        for seed = 0 to 20 do
          let q =
            Workloads.random_two_atom_query ~seed ~predicates:4 ~arity:2 ~variables:5
          in
          check "two-atom" true (Cq.Query.is_two_atom q)
        done);
    Alcotest.test_case "grid structure size" `Quick (fun () ->
        check_int "12 nodes" 12 (Structure.size (Workloads.grid 3 4));
        (* 3*3 + 2*4 = 17 undirected edges, 34 directed tuples. *)
        check_int "34 tuples" 34 (Structure.total_tuples (Workloads.grid 3 4)));
    Alcotest.test_case "complete bipartite is 2-colorable" `Quick (fun () ->
        check "K33 -> K2" true
          (Homomorphism.exists (Workloads.complete_bipartite 3 3) Workloads.k2));
  ]


(* ------------------------------------------------------------------ *)
(* History independence                                                 *)
(* ------------------------------------------------------------------ *)

(* A budgeted answer depends on (A, B) and the budget alone: an
   unbudgeted solve of the same pair in between, which shrinks the
   source to completion, must not change the verdict, the route or any
   attempt's outcome, node count or counters. *)
let report (r : Solver.result) =
  let attempt (at : Solver.attempt) =
    Printf.sprintf "%s:%s:%d:[%s]" (Solver.route_name at.route)
      (Solver.outcome_name at.outcome) at.nodes
      (String.concat ","
         (List.map (fun (name, n) -> Printf.sprintf "%s=%d" name n) at.counters))
  in
  String.concat " | "
    (Solver.verdict_name r.verdict :: Solver.route_name r.route
     :: List.map attempt r.attempts)

let history_tests =
  [
    Alcotest.test_case "a budgeted solve answers the same after an unbudgeted one"
      `Quick (fun () ->
        for seed = 0 to 199 do
          let a, b = Selfcheck.instance seed in
          List.iter
            (fun max_nodes ->
              let budgeted () =
                report
                  (Solver.solve ~threads:1
                     ~budget:(Budget.create ~max_nodes ()) a b)
              in
              let first = budgeted () in
              ignore (Solver.solve ~threads:1 a b);
              Alcotest.(check string)
                (Printf.sprintf "seed %d max_nodes %d" seed max_nodes)
                first (budgeted ()))
            [ 10; 20; 50 ]
        done);
  ]

(* ------------------------------------------------------------------ *)
(* Hell-Nesetril dichotomy for graph targets                            *)
(* ------------------------------------------------------------------ *)

let graph_dichotomy_tests =
  [
    Alcotest.test_case "recognition" `Quick (fun () ->
        check "K3 is a graph" true (Graph_dichotomy.is_undirected_graph (Workloads.clique 3));
        check "directed C3 is not" false
          (Graph_dichotomy.is_undirected_graph (Workloads.directed_cycle 3));
        check "paths are directed" false (Graph_dichotomy.is_undirected_graph (Workloads.path 3)));
    Alcotest.test_case "complexity verdicts" `Quick (fun () ->
        check "K2 poly" true (Graph_dichotomy.complexity Workloads.k2 = Graph_dichotomy.Polynomial);
        check "C6 poly" true
          (Graph_dichotomy.complexity (Workloads.undirected_cycle 6) = Graph_dichotomy.Polynomial);
        check "K3 np-complete" true
          (Graph_dichotomy.complexity (Workloads.clique 3) = Graph_dichotomy.Np_complete);
        check "C5 np-complete" true
          (Graph_dichotomy.complexity (Workloads.undirected_cycle 5) = Graph_dichotomy.Np_complete);
        let loopy =
          Structure.of_relations Workloads.graph_vocab ~size:3
            [ ("E", [ [| 0; 1 |]; [| 1; 0 |]; [| 2; 2 |] ]) ]
        in
        check "loop rescues K3-free" true
          (Graph_dichotomy.complexity loopy = Graph_dichotomy.Polynomial));
    Alcotest.test_case "solve: loop target absorbs everything" `Quick (fun () ->
        let loopy =
          Structure.of_relations Workloads.graph_vocab ~size:1 [ ("E", [ [| 0; 0 |] ]) ]
        in
        match Graph_dichotomy.solve (Workloads.undirected_cycle 5) loopy with
        | Ok h ->
          check "valid" true
            (Homomorphism.is_homomorphism (Workloads.undirected_cycle 5) loopy h)
        | Error _ -> Alcotest.fail "expected hom");
    Alcotest.test_case "solve: bipartite target = 2-colorability" `Quick (fun () ->
        let c6 = Workloads.undirected_cycle 6 in
        let target = Workloads.complete_bipartite 2 3 in
        (match Graph_dichotomy.solve c6 target with
        | Ok h -> check "valid" true (Homomorphism.is_homomorphism c6 target h)
        | Error _ -> Alcotest.fail "expected hom");
        let c5 = Workloads.undirected_cycle 5 in
        match Graph_dichotomy.solve c5 target with
        | Ok _ -> Alcotest.fail "odd cycle should fail"
        | Error c -> check "odd walk checks" true (Certificate.check c5 target c));
    Alcotest.test_case "solve: NP-complete target rejected" `Quick (fun () ->
        check "raises" true
          (try
             ignore (Graph_dichotomy.solve Workloads.k2 (Workloads.clique 3));
             false
           with Invalid_argument _ -> true));
    Alcotest.test_case "solver picks the graph route" `Quick (fun () ->
        let r = Solver.solve (Workloads.undirected_cycle 8) (Workloads.complete_bipartite 3 3) in
        match r.Solver.route with
        | Solver.Graph_target Graph_dichotomy.Polynomial ->
          check "answer" true (Solver.answer r <> None)
        | rt -> Alcotest.fail ("unexpected route " ^ Solver.route_name rt));
    qtest ~count:150 "dichotomy solve agrees with brute force on tractable graphs"
      (QCheck.make
         ~print:(fun (a, b) ->
           Format.asprintf "A = %a@.B = %a" Structure.pp a Structure.pp b)
         QCheck.Gen.(
           let* seed = 0 -- 10000 in
           let* n = 1 -- 5 in
           let* p = float_bound_inclusive 0.7 in
           let a = Workloads.erdos_renyi ~seed ~n ~p in
           (* Tractable targets: random bipartite graph or a loopy graph. *)
           let* which = bool in
           let b =
             if which then Workloads.complete_bipartite 2 2
             else
               Structure.of_relations Workloads.graph_vocab ~size:2
                 [ ("E", [ [| 0; 0 |]; [| 0; 1 |]; [| 1; 0 |] ]) ]
           in
           return (a, b)))
      (fun (a, b) ->
        match Graph_dichotomy.solve a b with
        | Ok h -> Homomorphism.is_homomorphism a b h && brute_force_exists a b
        | Error c -> Certificate.check a b c && not (brute_force_exists a b));
  ]

let () =
  Alcotest.run "core"
    [ ("csp", csp_tests); ("solver", solver_tests); ("certificate", certificate_tests);
      ("workloads", workload_tests); ("history", history_tests);
      ("graph-dichotomy", graph_dichotomy_tests) ]
