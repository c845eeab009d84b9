open Relational
open Pebble
open Helpers

let check = Alcotest.(check bool)

let run ?budget ~k a b =
  match Game.run ?budget ~k a b with
  | Some outcome -> outcome
  | None -> Alcotest.fail "configuration space over capacity"

let family ?budget ~k a b = (run ?budget ~k a b).Game.family

let sorted_family ?budget ~k a b =
  List.sort compare (Game.configs (family ?budget ~k a b))

let game_tests =
  [
    Alcotest.test_case "duplicator wins when a homomorphism exists" `Quick (fun () ->
        check "C6 vs K2, k=2" true (Game.duplicator_wins ~k:2 (undirected_cycle 6) k2);
        check "C6 vs K2, k=3" true (Game.duplicator_wins ~k:3 (undirected_cycle 6) k2);
        check "path vs loop" true
          (Game.duplicator_wins ~k:2 (path 5) (digraph ~size:1 [ (0, 0) ])));
    Alcotest.test_case "3 pebbles refute odd cycles vs K2" `Quick (fun () ->
        check "C5" true (Game.spoiler_wins ~k:3 (undirected_cycle 5) k2);
        check "C7" true (Game.spoiler_wins ~k:3 (undirected_cycle 7) k2);
        check "C3" true (Game.spoiler_wins ~k:3 (undirected_cycle 3) k2));
    Alcotest.test_case "2 pebbles are too weak on C5 vs K2" `Quick (fun () ->
        check "duplicator survives" true (Game.duplicator_wins ~k:2 (undirected_cycle 5) k2));
    Alcotest.test_case "K4 vs K3: 4 pebbles refute 3-colorability of K4" `Quick (fun () ->
        check "spoiler wins" true (Game.spoiler_wins ~k:4 (clique 4) (clique 3));
        (* 2-consistency does NOT refute K4 -> K3: every pair of pebbles can
           be answered; only 4 pebbles expose the contradiction. *)
        check "but the duplicator survives k=2" true
          (Game.duplicator_wins ~k:2 (clique 4) (clique 3)));
    Alcotest.test_case "empty source: duplicator wins trivially" `Quick (fun () ->
        let empty = Structure.create graph_vocab ~size:0 in
        check "wins" true (Game.duplicator_wins ~k:2 empty k2));
    Alcotest.test_case "empty target: spoiler wins on nonempty source" `Quick (fun () ->
        let empty = Structure.create graph_vocab ~size:0 in
        check "spoiler" true (Game.spoiler_wins ~k:2 (path 2) empty));
    Alcotest.test_case "winning family is restriction-closed and has forth" `Quick (fun () ->
        let family = Game.configs (family ~k:2 (undirected_cycle 4) k2) in
        check "nonempty" true (family <> []);
        check "contains empty config" true (List.mem [] family);
        (* Restriction-closure. *)
        check "restrictions present" true
          (List.for_all
             (fun config ->
               List.for_all
                 (fun (x, _) ->
                   List.mem (List.filter (fun (y, _) -> y <> x) config) family)
                 config)
             family));
    Alcotest.test_case "stats are reported" `Quick (fun () ->
        let { Game.family; stats; _ } = run ~k:2 (undirected_cycle 5) k2 in
        check "duplicator survives" true (Game.mem family []);
        check "configs counted" true (stats.initial_configs > 0));
    Alcotest.test_case "solve is one-sided" `Quick (fun () ->
        (* A Spoiler win refutes; a Duplicator win is inconclusive. *)
        check "refutes" true (Game.spoiler_wins ~k:3 (undirected_cycle 5) k2);
        check "inconclusive" true (Game.duplicator_wins ~k:3 (undirected_cycle 6) k2));
  ]

let property_tests =
  [
    qtest ~count:150 "hom existence implies duplicator wins (k=2)"
      (arbitrary_pair ~max_size_a:4 ~max_size_b:3 ~max_tuples:4 ())
      (fun (a, b) ->
        (not (brute_force_exists a b)) || Game.duplicator_wins ~k:2 a b);
    qtest ~count:60 "hom existence implies duplicator wins (k=3)"
      (arbitrary_pair ~max_size_a:4 ~max_size_b:3 ~max_tuples:4 ())
      (fun (a, b) ->
        (not (brute_force_exists a b)) || Game.duplicator_wins ~k:3 a b);
    qtest ~count:60 "with k = |A| the game is exact"
      (arbitrary_pair ~max_size_a:3 ~max_size_b:3 ~max_tuples:4 ())
      (fun (a, b) ->
        Game.duplicator_wins ~k:(max 1 (Structure.size a)) a b = brute_force_exists a b);
    qtest ~count:100 "monotone in k: spoiler win persists as k grows"
      (arbitrary_pair ~max_size_a:4 ~max_size_b:2 ~max_tuples:4 ())
      (fun (a, b) ->
        (not (Game.spoiler_wins ~k:2 a b)) || Game.spoiler_wins ~k:3 a b);
    qtest ~count:100 "spoiler win refutes homomorphism (soundness, k=2)"
      (arbitrary_pair ~max_size_a:4 ~max_size_b:3 ~max_tuples:4 ())
      (fun (a, b) -> (not (Game.spoiler_wins ~k:2 a b)) || not (brute_force_exists a b));
    qtest ~count:60 "game vs Horn targets: exact at k = max arity"
      (QCheck.make
         QCheck.Gen.(
           let* b = gen_schaefer_structure Schaefer.Classify.Horn in
           let+ a = gen_source_for b ~max_size:4 ~max_tuples:4 in
           (a, b)))
      (fun (a, b) ->
        (* Theorem 4.9 / Remark 4.10(2): for a k-ary Horn structure B, the
           complement of CSP(B) is k-Datalog-expressible, so the k-pebble
           game decides it (k = max arity of B, at least 1). *)
        let k =
          List.fold_left (fun k (_, a) -> max k a) 1 (Vocabulary.symbols (Structure.vocabulary b))
        in
        Game.duplicator_wins ~k a b = brute_force_exists a b);
  ]

let monotonicity_tests =
  [
    qtest ~count:80 "adding target tuples only helps the duplicator"
      (arbitrary_pair ~max_rels:1 ~max_arity:2 ~max_size_a:4 ~max_size_b:3 ~max_tuples:4 ())
      (fun (a, b) ->
        (* Enrich B with extra random-ish tuples: duplicator can only gain. *)
        let richer =
          Structure.fold_tuples
            (fun name t acc ->
              let shifted = Array.map (fun x -> (x + 1) mod Structure.size b) t in
              Structure.add_tuple acc name shifted)
            b b
        in
        (not (Game.duplicator_wins ~k:2 a b)) || Game.duplicator_wins ~k:2 a richer);
    qtest ~count:60 "winning family shrinks as k grows"
      (arbitrary_pair ~max_rels:1 ~max_arity:2 ~max_size_a:3 ~max_size_b:2 ~max_tuples:3 ())
      (fun (a, b) ->
        (* Every configuration of size <= 2 surviving at k=3 also survives
           at k=2 (more pebbles demand more). *)
        let f2 = Game.configs (family ~k:2 a b) in
        let f3 = Game.configs (family ~k:3 a b) in
        List.for_all
          (fun config -> List.length config > 2 || List.mem config f2)
          f3);
  ]

(* ------------------------------------------------------------------ *)
(* The integer-encoded counting engine vs the naive oracle.             *)
(* ------------------------------------------------------------------ *)

let oracle_family ?(budget = Budget.unlimited) ~k a b =
  List.sort compare (fst (Oracle.Pebble.family ~budget ~k a b))

(* The engine's family equals the oracle's, [mem] holds on every oracle
   configuration, and [respond] answers every Spoiler move from every
   oracle position with fewer than k pebbles (the forth property). *)
let engines_agree ~k (a, b) =
  let f = family ~k a b in
  let oracle = oracle_family ~k a b in
  List.sort compare (Game.configs f) = oracle
  && List.for_all (Game.mem f) oracle
  && List.for_all
       (fun config ->
         List.length config >= k
         || List.for_all
              (fun x -> List.mem_assoc x config || Game.respond f config x <> None)
              (Structure.universe a))
       oracle

let raises_invalid f =
  match f () with _ -> false | exception Invalid_argument _ -> true

let encoding_tests =
  [
    Alcotest.test_case "rank/unrank round-trips every code" `Quick (fun () ->
        List.iter
          (fun (n, m, k) ->
            match Game.Encoding.create ~n ~m ~k with
            | None -> Alcotest.failf "encoding (%d,%d,%d) over capacity" n m k
            | Some enc ->
              let total = Game.Encoding.configs enc in
              for c = 0 to total - 1 do
                let cfg = Game.Encoding.unrank enc c in
                if Game.Encoding.rank enc cfg <> c then
                  Alcotest.failf "rank(unrank %d) <> %d at (n=%d,m=%d,k=%d)" c c n
                    m k
              done)
          [ (1, 1, 1); (3, 2, 2); (4, 3, 3); (5, 2, 4); (2, 5, 2) ]);
    Alcotest.test_case "code count matches the closed form" `Quick (fun () ->
        (* sum over domain sizes d <= k of C(n, d) * m^d *)
        let closed_form n m k =
          let binom n r =
            let r = min r (n - r) in
            let acc = ref 1 in
            for i = 0 to r - 1 do
              acc := !acc * (n - i) / (i + 1)
            done;
            !acc
          in
          let pow m d =
            let acc = ref 1 in
            for _ = 1 to d do acc := !acc * m done;
            !acc
          in
          let total = ref 0 in
          for d = 0 to min k n do
            total := !total + (binom n d * pow m d)
          done;
          !total
        in
        List.iter
          (fun (n, m, k) ->
            match Game.Encoding.create ~n ~m ~k with
            | None -> Alcotest.failf "encoding (%d,%d,%d) over capacity" n m k
            | Some enc ->
              Alcotest.(check int)
                (Printf.sprintf "configs at (n=%d,m=%d,k=%d)" n m k)
                (closed_form n m k)
                (Game.Encoding.configs enc))
          [ (1, 1, 1); (3, 2, 2); (4, 3, 3); (5, 2, 4); (6, 3, 2) ]);
    Alcotest.test_case "the empty configuration ranks to 0" `Quick (fun () ->
        match Game.Encoding.create ~n:4 ~m:3 ~k:2 with
        | None -> Alcotest.fail "encoding over capacity"
        | Some enc ->
          Alcotest.(check int) "rank []" 0 (Game.Encoding.rank enc []);
          check "unrank 0" true (Game.Encoding.unrank enc 0 = []));
    Alcotest.test_case "rank rejects malformed configurations" `Quick (fun () ->
        match Game.Encoding.create ~n:3 ~m:2 ~k:2 with
        | None -> Alcotest.fail "encoding over capacity"
        | Some enc ->
          check "unsorted domain" true
            (raises_invalid (fun () -> Game.Encoding.rank enc [ (1, 0); (0, 0) ]));
          check "repeated domain" true
            (raises_invalid (fun () -> Game.Encoding.rank enc [ (0, 0); (0, 1) ]));
          check "image out of range" true
            (raises_invalid (fun () -> Game.Encoding.rank enc [ (0, 5) ]));
          check "negative element" true
            (raises_invalid (fun () -> Game.Encoding.rank enc [ (-1, 0); (0, 0) ]));
          check "element outside the source" true
            (raises_invalid (fun () -> Game.Encoding.rank enc [ (0, 0); (3, 0) ]));
          check "domain larger than k" true
            (raises_invalid (fun () ->
                 Game.Encoding.rank enc [ (0, 0); (1, 0); (2, 0) ]));
          check "unrank out of range" true
            (raises_invalid (fun () ->
                 Game.Encoding.unrank enc (Game.Encoding.configs enc))));
    Alcotest.test_case "create refuses an oversized layout up front" `Quick (fun () ->
        (* C(6000,2) * 2^2 codes exceed the capacity: the closed-form totals
           refuse the encoding before any subset is ranked. *)
        check "none" true (Game.Encoding.create ~n:6000 ~m:2 ~k:2 = None);
        (* The game then declines: [run] answers [None] and the boolean
           conveniences refuse to guess. *)
        let k5 = [ 0; 1; 2; 3; 4 ] in
        let padded =
          digraph ~size:8193
            (List.concat_map
               (fun i -> List.filter_map (fun j -> if i <> j then Some (i, j) else None) k5)
               k5)
        in
        check "run declines" true (Game.run ~k:2 (clique 5) padded = None);
        check "spoiler_wins raises" true
          (raises_invalid (fun () -> Game.spoiler_wins ~k:2 (clique 5) padded)));
    Alcotest.test_case "create allocates no per-subset layout" `Quick (fun () ->
        (* 1 + 2000 + C(2000,2) subsets: the closed-form rank stores only
           a binomial table of (n+1)*(k+1) entries, where a per-subset
           layout would allocate hundreds of millions of words. *)
        let words () =
          let minor, _, major = Gc.counters () in
          minor +. major
        in
        let before = words () in
        let enc = Game.Encoding.create ~n:2000 ~m:2 ~k:2 in
        let allocated = words () -. before in
        check "fits" true (enc <> None);
        if allocated >= 1e6 then
          Alcotest.failf "create allocated %.0f words (bound 1M)" allocated);
  ]

let counter_tests =
  [
    Alcotest.test_case "support counters audit on fixed instances" `Quick (fun () ->
        check "C5 vs K2, k=2" true (Game.counter_invariant ~k:2 (undirected_cycle 5) k2);
        check "C6 vs K2, k=3" true (Game.counter_invariant ~k:3 (undirected_cycle 6) k2);
        check "K4 vs K3, k=2" true (Game.counter_invariant ~k:2 (clique 4) (clique 3));
        check "C7 vs K2, k=3 (spoiler win)" true
          (Game.counter_invariant ~k:3 (undirected_cycle 7) k2));
    qtest ~count:80 "support counters match surviving extensions (k=2)"
      (arbitrary_pair ~max_size_a:4 ~max_size_b:3 ~max_tuples:4 ())
      (fun (a, b) -> Game.counter_invariant ~k:2 a b);
    qtest ~count:40 "support counters match surviving extensions (k=3)"
      (arbitrary_pair ~max_size_a:4 ~max_size_b:3 ~max_tuples:4 ())
      (fun (a, b) -> Game.counter_invariant ~k:3 a b);
  ]

let differential_tests =
  [
    qtest ~count:200 "engines agree on the winning family (k=2)"
      (arbitrary_pair ~max_size_a:4 ~max_size_b:3 ~max_tuples:4 ())
      (engines_agree ~k:2);
    qtest ~count:100 "engines agree on the winning family (k=3)"
      (arbitrary_pair ~max_size_a:4 ~max_size_b:3 ~max_tuples:4 ())
      (engines_agree ~k:3);
    qtest ~count:60 "counting-engine spoiler traces replay through the checker"
      (arbitrary_pair ~max_size_a:4 ~max_size_b:2 ~max_tuples:4 ())
      (fun (a, b) ->
        let { Game.family; trace; _ } = run ~k:2 a b in
        Game.mem family [] || Certificate.check a b (Certificate.Spoiler_win trace));
    Alcotest.test_case "an empty target's trace replays through the checker" `Quick
      (fun () ->
        (* No element of the source can be placed: the engine's own trace
           must be the one-step derivation that kills the empty position. *)
        let b = Structure.create (Structure.vocabulary k2) ~size:0 in
        let { Game.family; trace; _ } = run ~k:2 (path 3) b in
        check "spoiler wins" false (Game.mem family []);
        check "trace replays" true
          (Certificate.check (path 3) b (Certificate.Spoiler_win trace)));
    Alcotest.test_case "nullary facts are enforced by both engines" `Quick (fun () ->
        let voc = Vocabulary.create [ ("P", 0); ("E", 2) ] in
        let a =
          Structure.add_tuple
            (Structure.add_tuple (Structure.create voc ~size:2) "P" [||])
            "E" [| 0; 1 |]
        in
        let b = Structure.add_tuple (Structure.create voc ~size:2) "E" [| 0; 1 |] in
        (* P() holds in A but not in B: no partial homomorphism exists, and
           the counting engine's trace must replay through the checker. *)
        let { Game.family = f; trace; _ } = run ~k:2 a b in
        check "counting family empty" true (Game.configs f = []);
        check "naive family empty" true (oracle_family ~k:2 a b = []);
        check "trace replays" true
          (Certificate.check a b (Certificate.Spoiler_win trace));
        (* With the fact present in B the engines agree on the full family. *)
        let b = Structure.add_tuple b "P" [||] in
        check "families agree when the fact holds" true (engines_agree ~k:2 (a, b));
        check "family nonempty when the fact holds" true
          (Game.configs (family ~k:2 a b) <> []));
    qtest ~count:60 "tight budgets: engines agree whenever both finish"
      (arbitrary_pair ~max_size_a:4 ~max_size_b:3 ~max_tuples:4 ())
      (fun (a, b) ->
        List.for_all
          (fun max_nodes ->
            let finish family =
              match family (Budget.create ~max_nodes ()) with
              | f -> Some f
              | exception Budget.Exhausted _ -> None
            in
            match
              ( finish (fun budget -> sorted_family ~budget ~k:2 a b),
                finish (fun budget -> oracle_family ~budget ~k:2 a b) )
            with
            | Some fc, Some fn -> fc = fn
            | _ ->
              (* An exhaustion point may differ between engines; the only
                 requirement is that no wrong family is ever returned. *)
              true)
          [ 1; 10; 100; 1000 ]);
  ]

let strategy_tests =
  [
    Alcotest.test_case "no strategy when the spoiler wins" `Quick (fun () ->
        let s = family ~k:3 (undirected_cycle 5) k2 in
        check "empty config is not in the family" false (Game.mem s []);
        check "no response" true (Game.respond s [] 0 = None));
    Alcotest.test_case "strategy answers a scripted attack" `Quick (fun () ->
        let s = family ~k:2 (undirected_cycle 6) k2 in
        check "empty config is in the family" true (Game.mem s []);
        match Game.respond s [] 0 with
        | None -> Alcotest.fail "expected a response"
        | Some b0 ->
          let cfg = [ (0, b0) ] in
          check "position still winning" true (Game.mem s cfg);
          (match Game.respond s cfg 1 with
          | None -> Alcotest.fail "expected a response to the neighbour"
          | Some b1 -> check "proper colouring" true (b0 <> b1)));
    qtest ~count:50 "random play never strands a winning duplicator"
      (arbitrary_pair ~max_rels:1 ~max_arity:2 ~max_size_a:4 ~max_size_b:3 ~max_tuples:4 ())
      (fun (a, b) ->
        let s = family ~k:2 a b in
        if not (Game.mem s []) then true
        else
          let st = Random.State.make [| Structure.size a; Structure.size b |] in
          let n = Structure.size a in
          let config = ref [] in
          let ok = ref true in
          for _ = 1 to 12 do
            if !ok && n > 0 then begin
              (* Spoiler removes a pebble when full, then pebbles an element
                 outside the current domain. *)
              if List.length !config >= 2 then begin
                let drop = fst (List.nth !config (Random.State.int st 2)) in
                config := List.filter (fun (x, _) -> x <> drop) !config
              end;
              let free =
                List.filter
                  (fun x -> not (List.mem_assoc x !config))
                  (Structure.universe a)
              in
              if free <> [] then begin
                let x = List.nth free (Random.State.int st (List.length free)) in
                match Game.respond s !config x with
                | None -> ok := false
                | Some v ->
                  config := List.sort compare ((x, v) :: !config);
                  if not (Game.mem s !config) then ok := false
              end
            end
          done;
          !ok);
  ]

let () =
  Alcotest.run "pebble"
    [ ("game", game_tests); ("properties", property_tests);
      ("monotonicity", monotonicity_tests); ("encoding", encoding_tests);
      ("counters", counter_tests); ("differential", differential_tests);
      ("strategy", strategy_tests) ]
