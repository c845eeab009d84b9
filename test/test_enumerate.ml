(* Streaming enumeration differential: the route-dispatched streams of
   [Enumerate] must agree with the naive materializing
   [Homomorphism.enumerate] as a set, and [Enumerate.count] with the
   length of the full enumeration, across all three routes. *)

open Relational

let check = Alcotest.(check bool)

let check_int = Alcotest.(check int)

let sorted maps = List.sort compare (List.map Array.to_list maps)

(* Deterministic pseudo-random stream, independent of the stdlib Random
   state so test cases stay reproducible in isolation. *)
let mix seed =
  let x = ref (seed * 2654435761 land max_int) in
  fun bound ->
    x := (!x * 48271) mod 0x7FFFFFFF;
    !x mod bound

(* A random directed tree on [n] vertices plus one isolated vertex, so
   the acyclic route also exercises its free-element streams. *)
let random_tree_source seed =
  let rand = mix seed in
  let n = 2 + rand 4 in
  let edges = List.init (n - 1) (fun i -> (rand (i + 1), i + 1)) in
  Structure.of_relations Core.Workloads.graph_vocab ~size:(n + 1)
    [ ("E", List.map (fun (u, v) -> [| u; v |]) edges) ]

let random_target seed =
  let rand = mix (seed + 7919) in
  let m = 2 + rand 3 in
  Core.Workloads.erdos_renyi ~seed:(seed + 13) ~n:m ~p:0.55

let differential ?max_width ~expect_route a b =
  let plan = Enumerate.plan ?max_width a b in
  if not (expect_route plan.Enumerate.route) then
    Alcotest.failf "unexpected route %s" (Enumerate.route_name plan.Enumerate.route);
  let streamed = List.of_seq plan.Enumerate.seq in
  let naive = Homomorphism.enumerate a b in
  Alcotest.(check (list (list int)))
    "streamed = naive as a set" (sorted naive) (sorted streamed);
  check_int "count = |enumeration|" (List.length naive)
    (Enumerate.count ?max_width a b)

let acyclic_cases () =
  for seed = 0 to 99 do
    differential
      ~expect_route:(function Enumerate.Acyclic -> true | _ -> false)
      (random_tree_source seed) (random_target seed)
  done

let treewidth_cases () =
  for seed = 0 to 99 do
    let rand = mix (seed + 31) in
    let a =
      if seed mod 2 = 0 then Core.Workloads.undirected_cycle (3 + rand 4)
      else Core.Workloads.grid 2 (2 + rand 3)
    in
    differential
      ~expect_route:(function
        | Enumerate.Bounded_treewidth w -> w <= 3
        | _ -> false)
      a (random_target seed)
  done

let general_cases () =
  (* Cyclic sources forced onto the backtracking route by disabling the
     treewidth tier. *)
  for seed = 0 to 99 do
    let rand = mix (seed + 977) in
    differential ~max_width:0
      ~expect_route:(function Enumerate.Backtracking -> true | _ -> false)
      (Core.Workloads.undirected_cycle (3 + rand 3))
      (random_target seed)
  done

let differential_tests =
  [
    Alcotest.test_case "acyclic route, 100 seeds" `Quick acyclic_cases;
    Alcotest.test_case "treewidth route, 100 seeds" `Quick treewidth_cases;
    Alcotest.test_case "backtracking route, 100 seeds" `Quick general_cases;
  ]

(* ------------------------------------------------------------------ *)
(* Early termination: a limit-k pull does bounded work.                 *)
(* ------------------------------------------------------------------ *)

let limit_tests =
  [
    Alcotest.test_case "limit truncates the stream" `Quick (fun () ->
        let a = Core.Workloads.path 3 and b = Core.Workloads.clique 4 in
        check_int "limit 5" 5
          (List.length (List.of_seq (Enumerate.stream ~limit:5 a b)));
        check_int "limit 0" 0
          (List.length (List.of_seq (Enumerate.stream ~limit:0 a b)));
        (* 36 = 4 * 3 * 3 walks of length 2 in K4. *)
        check_int "full" 36 (Enumerate.count a b));
    Alcotest.test_case "limit pull stays within a budget full enumeration blows"
      `Quick (fun () ->
        (* Forced onto backtracking; the full stream must exhaust the
           tiny budget, while an early-terminated one-answer pull
           completes inside it. *)
        let a = Core.Workloads.undirected_cycle 5
        and b = Core.Workloads.clique 4 in
        let blown =
          let budget = Budget.create ~max_nodes:50 () in
          match
            List.of_seq (Enumerate.stream ~max_width:0 ~budget a b)
          with
          | _ -> false
          | exception Budget.Exhausted _ -> true
        in
        check "full enumeration exhausts" true blown;
        let budget = Budget.create ~max_nodes:50 () in
        check_int "limit 1 completes" 1
          (List.length
             (List.of_seq (Enumerate.stream ~max_width:0 ~limit:1 ~budget a b))));
  ]

(* ------------------------------------------------------------------ *)
(* Overflow: counts grow like |B|^|A| and must fail loudly, not wrap.   *)
(* ------------------------------------------------------------------ *)

let edgeless n = Structure.create Core.Workloads.graph_vocab ~size:n

let overflow_tests =
  [
    Alcotest.test_case "checked primitives" `Quick (fun () ->
        check_int "add" 3 (Homomorphism.checked_add 1 2);
        check_int "mul" 6 (Homomorphism.checked_mul 2 3);
        check_int "pow" 1024 (Homomorphism.checked_pow 2 10);
        let raises f =
          match f () with
          | _ -> false
          | exception Homomorphism.Count_overflow -> true
        in
        check "add overflow" true (raises (fun () -> Homomorphism.checked_add max_int 1));
        check "mul overflow" true (raises (fun () -> Homomorphism.checked_mul max_int 2));
        check "pow overflow" true (raises (fun () -> Homomorphism.checked_pow 2 63)));
    Alcotest.test_case "16 free vertices over a 16-element target" `Quick
      (fun () ->
        (* True count 16^16 = 2^64: the old wrapping arithmetic returned
           2^64 mod 2^63 = 0; the checked DP raises. *)
        let a = edgeless 16 and b = Core.Workloads.clique 16 in
        let raises f =
          match f () with
          | (_ : int) -> false
          | exception Homomorphism.Count_overflow -> true
        in
        check "Td_solver.count overflows" true
          (raises (fun () -> Treewidth.Td_solver.count a b));
        check "Enumerate.count overflows" true
          (raises (fun () -> Enumerate.count a b)));
    Alcotest.test_case "moderate powers agree across counters" `Quick (fun () ->
        let a = edgeless 3 and b = Core.Workloads.clique 4 in
        check_int "enumerate" 64 (Enumerate.count a b);
        check_int "td" 64 (Treewidth.Td_solver.count a b);
        check_int "backtracking" 64 (Homomorphism.count a b));
  ]

(* ------------------------------------------------------------------ *)
(* Streaming vs materializing on a sanity instance per route, plus the
   component product rule.                                              *)
(* ------------------------------------------------------------------ *)

let unit_tests =
  [
    Alcotest.test_case "K2 self-maps" `Quick (fun () ->
        let b = Core.Workloads.k2 in
        check_int "2 automorphisms" 2
          (List.length (List.of_seq (Enumerate.stream b b)));
        check_int "count" 2 (Enumerate.count b b));
    Alcotest.test_case "search_seq streams the search" `Quick (fun () ->
        let a = Core.Workloads.path 2 and b = Core.Workloads.clique 3 in
        check_int "6 arcs" 6
          (List.length (List.of_seq (Homomorphism.search_seq a b)));
        check_int "enumerate matches" 6
          (List.length (Homomorphism.enumerate a b)));
    Alcotest.test_case "disconnected source factors" `Quick (fun () ->
        (* Two disjoint edges + an isolated vertex over K3:
           6 * 6 * 3 = 108, deduplicated to one edge part ^2. *)
        let a =
          Structure.of_relations Core.Workloads.graph_vocab ~size:5
            [ ("E", [ [| 0; 1 |]; [| 2; 3 |] ]) ]
        in
        let b = Core.Workloads.clique 3 in
        check_int "count" 108 (Enumerate.count a b);
        check_int "stream agrees" 108
          (List.length (List.of_seq (Enumerate.stream a b))));
    Alcotest.test_case "unsat streams empty" `Quick (fun () ->
        let a = Core.Workloads.undirected_cycle 3 and b = Core.Workloads.k2 in
        check_int "no homs" 0
          (List.length (List.of_seq (Enumerate.stream a b)));
        check_int "count 0" 0 (Enumerate.count a b));
  ]

(* ------------------------------------------------------------------ *)
(* Nullary facts: [P()] in the source needs [P()] in the target, however *)
(* many elements the source has.                                        *)
(* ------------------------------------------------------------------ *)

let nullary_vocab = Vocabulary.create [ ("P", 0); ("E", 2) ]

let with_edges ~size ~p edges =
  Structure.of_relations nullary_vocab ~size
    (("E", List.map (fun (u, v) -> [| u; v |]) edges)
    :: (if p then [ ("P", [ [||] ]) ] else []))

(* Reference count: every mapping, checked by [is_homomorphism]. *)
let brute_count a b =
  let n = Structure.size a and m = Structure.size b in
  let h = Array.make n 0 in
  let rec go i =
    if i = n then if Homomorphism.is_homomorphism a b h then 1 else 0
    else begin
      let c = ref 0 in
      for v = 0 to m - 1 do
        h.(i) <- v;
        c := !c + go (i + 1)
      done;
      !c
    end
  in
  go 0

let engines_agree a b =
  let expected = brute_count a b in
  let exists = expected > 0 in
  let witness name = function
    | Some h -> check (name ^ " witness") true (Homomorphism.is_homomorphism a b h)
    | None -> check (name ^ " finds none") false exists
  in
  witness "Homomorphism.find" (Homomorphism.find a b);
  check_int "Homomorphism.count" expected (Homomorphism.count a b);
  witness "Hypergraph.solve_acyclic" (Treewidth.Hypergraph.solve_acyclic a b);
  witness "Td_solver.solve" (Treewidth.Td_solver.solve a b);
  check_int "Td_solver.count" expected (Treewidth.Td_solver.count a b);
  check_int "Enumerate.count" expected (Enumerate.count a b);
  check_int "Enumerate.stream" expected (List.length (List.of_seq (Enumerate.stream a b)));
  List.iter
    (fun preprocess ->
      Alcotest.(check (option bool))
        (Printf.sprintf "Solver.solve preprocess=%b" preprocess)
        (Some exists)
        (Helpers.certified_verdict a b (Core.Solver.solve ~threads:1 ~preprocess a b)))
    [ true; false ]

let k2_edges = [ (0, 1); (1, 0) ]

let nullary_tests =
  [
    Alcotest.test_case "missing P() with no elements" `Quick (fun () ->
        engines_agree (with_edges ~size:0 ~p:true []) (with_edges ~size:2 ~p:false k2_edges));
    Alcotest.test_case "missing P() with one element" `Quick (fun () ->
        engines_agree (with_edges ~size:1 ~p:true []) (with_edges ~size:2 ~p:false k2_edges));
    Alcotest.test_case "missing P() with two elements" `Quick (fun () ->
        engines_agree
          (with_edges ~size:2 ~p:true [ (0, 1) ])
          (with_edges ~size:2 ~p:false k2_edges));
    Alcotest.test_case "present P() with no elements" `Quick (fun () ->
        engines_agree (with_edges ~size:0 ~p:true []) (with_edges ~size:2 ~p:true k2_edges));
  ]

let () =
  Alcotest.run "enumerate"
    [
      ("unit", unit_tests);
      ("differential", differential_tests);
      ("limit", limit_tests);
      ("overflow", overflow_tests);
      ("nullary", nullary_tests);
    ]
