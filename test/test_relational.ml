open Relational
open Helpers

let check = Alcotest.(check bool)

let check_int = Alcotest.(check int)

(* ------------------------------------------------------------------ *)
(* Tuple                                                                *)
(* ------------------------------------------------------------------ *)

let tuple_tests =
  [
    Alcotest.test_case "compare orders by length then lex" `Quick (fun () ->
        check "shorter first" true (Tuple.compare [| 9 |] [| 0; 0 |] < 0);
        check "lex" true (Tuple.compare [| 1; 2 |] [| 1; 3 |] < 0);
        check_int "equal" 0 (Tuple.compare [| 1; 2 |] [| 1; 2 |]));
    Alcotest.test_case "elements dedupes preserving order" `Quick (fun () ->
        Alcotest.(check (list int)) "elems" [ 3; 1; 2 ] (Tuple.elements [| 3; 1; 3; 2; 1 |]));
    Alcotest.test_case "hash respects equality" `Quick (fun () ->
        check_int "same" (Tuple.hash [| 1; 2; 3 |]) (Tuple.hash [| 1; 2; 3 |]));
    Alcotest.test_case "hash separates permutations and lengths" `Quick (fun () ->
        check "permuted" true (Tuple.hash [| 1; 2; 3 |] <> Tuple.hash [| 3; 2; 1 |]);
        check "swapped pair" true (Tuple.hash [| 0; 1 |] <> Tuple.hash [| 1; 0 |]);
        check "length sensitive" true (Tuple.hash [| 0 |] <> Tuple.hash [| 0; 0 |]));
    Alcotest.test_case "hash spreads over dense small tuples" `Quick (fun () ->
        (* Small consecutive coordinates are exactly what Tuple.Table buckets
           see in practice; the avalanche mix must not collapse them. *)
        let seen = Hashtbl.create 1024 in
        for i = 0 to 31 do
          for j = 0 to 31 do
            Hashtbl.replace seen (Tuple.hash [| i; j |]) ()
          done
        done;
        check "at least 1000 distinct hashes of 1024" true (Hashtbl.length seen >= 1000));
  ]

(* ------------------------------------------------------------------ *)
(* Vocabulary                                                           *)
(* ------------------------------------------------------------------ *)

let vocabulary_tests =
  [
    Alcotest.test_case "create and lookup" `Quick (fun () ->
        let v = Vocabulary.create [ ("E", 2); ("P", 1) ] in
        check_int "arity E" 2 (Vocabulary.arity v "E");
        check_int "arity P" 1 (Vocabulary.arity v "P");
        check "mem" true (Vocabulary.mem v "E");
        check "not mem" false (Vocabulary.mem v "Q");
        check_int "size" 2 (List.length (Vocabulary.symbols v)));
    Alcotest.test_case "duplicate symbol rejected" `Quick (fun () ->
        Alcotest.check_raises "dup" (Invalid_argument "Vocabulary.create: duplicate symbol E")
          (fun () -> ignore (Vocabulary.create [ ("E", 2); ("E", 1) ])));
    Alcotest.test_case "subset and equal" `Quick (fun () ->
        let v = Vocabulary.create [ ("E", 2) ] and w = Vocabulary.create [ ("P", 1); ("E", 2) ] in
        check "subset" true (Vocabulary.subset v w);
        check "not subset" false (Vocabulary.subset w v);
        check "equal reorder" true
          (Vocabulary.equal w (Vocabulary.create [ ("E", 2); ("P", 1) ])));
  ]

(* ------------------------------------------------------------------ *)
(* Relation                                                             *)
(* ------------------------------------------------------------------ *)

let relation_tests =
  [
    Alcotest.test_case "add / mem / cardinal" `Quick (fun () ->
        let r = Relation.of_list 2 [ [| 0; 1 |]; [| 1; 0 |]; [| 0; 1 |] ] in
        check_int "cardinal dedupes" 2 (Relation.cardinal r);
        check "mem" true (Relation.mem r [| 0; 1 |]);
        check "not mem" false (Relation.mem r [| 1; 1 |]));
    Alcotest.test_case "arity mismatch rejected" `Quick (fun () ->
        check "raises" true
          (try
             ignore (Relation.of_list 2 [ [| 0 |] ]);
             false
           with Invalid_argument _ -> true));
    Alcotest.test_case "set operations" `Quick (fun () ->
        let r = Relation.of_list 1 [ [| 0 |]; [| 1 |] ] in
        let s = Relation.of_list 1 [ [| 1 |]; [| 2 |] ] in
        check_int "union" 3 (Relation.cardinal (Relation.union r s));
        check_int "diff" 1 (Relation.cardinal (Relation.diff r s)));
    Alcotest.test_case "matching agrees with a filter scan" `Quick (fun () ->
        let r = Relation.of_list 2 [ [| 0; 1 |]; [| 0; 2 |]; [| 1; 2 |]; [| 2; 0 |] ] in
        let by_scan pos value =
          List.filter (fun t -> t.(pos) = value) (Relation.elements r)
        in
        for pos = 0 to 1 do
          for v = 0 to 2 do
            let expected = by_scan pos v in
            let got = Array.to_list (Relation.matching r ~pos ~value:v) in
            check
              (Printf.sprintf "matching pos=%d value=%d" pos v)
              true
              (List.sort Tuple.compare expected = List.sort Tuple.compare got)
          done
        done;
        check_int "no match" 0 (Array.length (Relation.matching r ~pos:0 ~value:9)));
    Alcotest.test_case "index mem/cardinal/active_domain agree with the set" `Quick
      (fun () ->
        let r = Relation.of_list 2 [ [| 4; 1 |]; [| 1; 7 |]; [| 4; 4 |] ] in
        let ix = Relation.index r in
        check_int "cardinal" (Relation.cardinal r) (Array.length (Relation.Index.tuples ix));
        check "mem" true (Relation.Index.mem ix [| 1; 7 |]);
        check "not mem" false (Relation.Index.mem ix [| 7; 1 |]));
    Alcotest.test_case "derived relations never see a stale index" `Quick (fun () ->
        let r = Relation.of_list 2 [ [| 0; 1 |] ] in
        (* Force the lazy index on [r], then derive a new relation: the
           derived value must build its own index, not inherit the cache. *)
        ignore (Relation.index r);
        let r' = Relation.add r [| 1; 2 |] in
        check "derived index sees the new tuple" true
          (Relation.Index.mem (Relation.index r') [| 1; 2 |]);
        check_int "matching sees it" 1
          (Array.length (Relation.matching r' ~pos:0 ~value:1));
        check_int "original index untouched" 1
          (Array.length (Relation.Index.tuples (Relation.index r))));
  ]

(* ------------------------------------------------------------------ *)
(* Structure                                                            *)
(* ------------------------------------------------------------------ *)

let structure_tests =
  [
    Alcotest.test_case "out-of-universe tuple rejected" `Quick (fun () ->
        check "raises" true
          (try
             ignore (digraph ~size:2 [ (0, 5) ]);
             false
           with Invalid_argument _ -> true));
    Alcotest.test_case "norm and total_tuples" `Quick (fun () ->
        let g = path 4 in
        check_int "tuples" 3 (Structure.total_tuples g);
        check_int "norm" (4 + (3 * 2)) (Structure.norm g));
    Alcotest.test_case "induced keeps internal tuples only" `Quick (fun () ->
        let g = path 4 in
        let h = Structure.induced g [ 1; 2 ] in
        check_int "size" 2 (Structure.size h);
        check_int "edges" 1 (Relation.cardinal (Structure.relation h "E"));
        check "renumbered edge" true (Structure.mem_tuple h "E" [| 0; 1 |]));
    Alcotest.test_case "disjoint_union shifts second argument" `Quick (fun () ->
        let g = Structure.disjoint_union (path 2) (path 2) in
        check_int "size" 4 (Structure.size g);
        check "first copy" true (Structure.mem_tuple g "E" [| 0; 1 |]);
        check "second copy" true (Structure.mem_tuple g "E" [| 2; 3 |]);
        check "no cross edge" false (Structure.mem_tuple g "E" [| 1; 2 |]));
    Alcotest.test_case "product has componentwise tuples" `Quick (fun () ->
        let g = Testkit.Workloads.product (path 2) (path 2) in
        check_int "size" 4 (Structure.size g);
        check_int "one edge" 1 (Relation.cardinal (Structure.relation g "E"));
        (* (0,0) -> (1,1) encoded as 0 -> 3. *)
        check "edge" true (Structure.mem_tuple g "E" [| 0; 3 |]));
    Alcotest.test_case "gaifman edges of a path" `Quick (fun () ->
        Alcotest.(check (list (pair int int)))
          "edges" [ (0, 1); (1, 2) ]
          (Structure.gaifman_edges (path 3)));
    Alcotest.test_case "gaifman of a wide tuple is a clique" `Quick (fun () ->
        let v = Vocabulary.create [ ("T", 3) ] in
        let s = Structure.of_relations v ~size:3 [ ("T", [ [| 0; 1; 2 |] ]) ] in
        check_int "3 edges" 3 (List.length (Structure.gaifman_edges s)));
    Alcotest.test_case "incidence graph of a path" `Quick (fun () ->
        let n, edges = Structure.incidence_edges (path 3) in
        check_int "nodes: 3 elements + 2 tuples" 5 n;
        check_int "4 incidences" 4 (List.length edges));
    Alcotest.test_case "is_valid on constructions" `Quick (fun () ->
        check "path" true (Structure.is_valid (path 5));
        check "product" true (Structure.is_valid (Testkit.Workloads.product (path 3) (clique 3)));
        check "induced" true (Structure.is_valid (Structure.induced (clique 4) [ 0; 2 ])));
    Alcotest.test_case "rename_relations" `Quick (fun () ->
        let g = Testkit.Workloads.rename_relations (path 2) (fun _ -> "F") in
        check "renamed" true (Structure.mem_tuple g "F" [| 0; 1 |]));
  ]

(* ------------------------------------------------------------------ *)
(* Homomorphism: unit cases                                             *)
(* ------------------------------------------------------------------ *)

let hom_unit_tests =
  [
    Alcotest.test_case "path maps into single loop" `Quick (fun () ->
        let loop = digraph ~size:1 [ (0, 0) ] in
        check "exists" true (Homomorphism.exists (path 5) loop));
    Alcotest.test_case "odd cycle not 2-colorable, even is" `Quick (fun () ->
        check "C5 -> K2" false (Homomorphism.exists (undirected_cycle 5) k2);
        check "C6 -> K2" true (Homomorphism.exists (undirected_cycle 6) k2);
        check "C4 -> K2" true (Homomorphism.exists (undirected_cycle 4) k2));
    Alcotest.test_case "clique homomorphisms = colorability" `Quick (fun () ->
        check "K3 -> K3" true (Homomorphism.exists (clique 3) (clique 3));
        check "K4 -> K3" false (Homomorphism.exists (clique 4) (clique 3));
        check "C5 -> K3" true (Homomorphism.exists (undirected_cycle 5) (clique 3)));
    Alcotest.test_case "directed cycle into shorter cycle iff divisor" `Quick (fun () ->
        check "C6 -> C3" true (Homomorphism.exists (directed_cycle 6) (directed_cycle 3));
        check "C6 -> C4" false (Homomorphism.exists (directed_cycle 6) (directed_cycle 4));
        check "C4 -> C2" true (Homomorphism.exists (directed_cycle 4) (directed_cycle 2)));
    Alcotest.test_case "count homomorphisms P2 -> K3" `Quick (fun () ->
        (* Each edge of P2 can map onto any of the 6 directed edges of K3. *)
        check_int "count" 6 (Homomorphism.count (path 2) (clique 3)));
    Alcotest.test_case "count endomorphisms of directed C3" `Quick (fun () ->
        check_int "rotations" 3 (Homomorphism.count (directed_cycle 3) (directed_cycle 3)));
    Alcotest.test_case "enumerate respects limit" `Quick (fun () ->
        check_int "limit" 2
          (List.length (List.of_seq (Seq.take 2 (Homomorphism.search_seq (path 2) (clique 3))))));
    Alcotest.test_case "find returns an actual homomorphism" `Quick (fun () ->
        match Homomorphism.find (undirected_cycle 6) k2 with
        | None -> Alcotest.fail "expected a homomorphism"
        | Some h -> check "valid" true (Homomorphism.is_homomorphism (undirected_cycle 6) k2 h));
    Alcotest.test_case "restrict prunes targets" `Quick (fun () ->
        (* Force image to avoid node 0 of K2: impossible for an edge. *)
        check "no hom avoiding 0" true
          (Homomorphism.find ~restrict:(fun _ v -> v <> 0) (path 2) k2 = None));
    Alcotest.test_case "empty source maps anywhere" `Quick (fun () ->
        let empty = Structure.create graph_vocab ~size:0 in
        check "exists" true (Homomorphism.exists empty (clique 3));
        check "into empty" true (Homomorphism.exists empty empty));
    Alcotest.test_case "nonempty source into empty target fails" `Quick (fun () ->
        let empty = Structure.create graph_vocab ~size:0 in
        check "fails" false (Homomorphism.exists (path 2) empty));
    Alcotest.test_case "missing target symbol blocks homomorphism" `Quick (fun () ->
        let v2 = Vocabulary.create [ ("E", 2); ("F", 2) ] in
        let a = Structure.of_relations v2 ~size:2 [ ("F", [ [| 0; 1 |] ]) ] in
        check "fails" false (Homomorphism.exists a (clique 3)));
    Alcotest.test_case "one staged check serves two domains at once" `Quick (fun () ->
        (* The 3^6 colourings of C6 with K3, 66 of them proper: each
           domain counts them through the shared closure. *)
        let check_c6 = Homomorphism.is_homomorphism (undirected_cycle 6) (clique 3) in
        let colourings =
          Array.init 729 (fun code ->
              let h = Array.make 6 0 and rest = ref code in
              for i = 0 to 5 do
                h.(i) <- !rest mod 3;
                rest := !rest / 3
              done;
              h)
        in
        let proper () =
          let n = ref 0 in
          for _ = 1 to 20 do
            Array.iter (fun h -> if check_c6 h then incr n) colourings
          done;
          !n
        in
        let other = Domain.spawn proper in
        let mine = proper () in
        check_int "this domain" (20 * 66) mine;
        check_int "the other domain" (20 * 66) (Domain.join other));
    Alcotest.test_case "compose and identity" `Quick (fun () ->
        let h = [| 1; 0; 1 |] and g = [| 5; 7 |] in
        Alcotest.check mapping_testable "compose" [| 7; 5; 7 |] (Homomorphism.compose g h));
  ]

(* ------------------------------------------------------------------ *)
(* Isomorphism (the core search itself is tested with Preprocess)       *)
(* ------------------------------------------------------------------ *)

let core_tests =
  [
    Alcotest.test_case "isomorphism checks" `Quick (fun () ->
        check "C4 iso to itself" true
          (Testkit.Compare.isomorphic (undirected_cycle 4) (undirected_cycle 4));
        check "C4 not iso to K2 pair" false
          (Testkit.Compare.isomorphic (undirected_cycle 4)
             (Structure.disjoint_union k2 k2));
        check "directed C3 iso under rotation" true
          (Testkit.Compare.is_isomorphism (directed_cycle 3) (directed_cycle 3) [| 1; 2; 0 |]);
        check "collapse is not iso" false
          (Testkit.Compare.is_isomorphism (undirected_cycle 4) (undirected_cycle 4)
             [| 0; 1; 0; 1 |]));
  ]

(* ------------------------------------------------------------------ *)
(* Arc consistency                                                      *)
(* ------------------------------------------------------------------ *)

let ac_tests =
  [
    Alcotest.test_case "wipeout on impossible instance" `Quick (fun () ->
        let ctx = Arc_consistency.create (path 2) (Structure.create graph_vocab ~size:1) in
        check "wiped" false (Arc_consistency.establish ctx));
    Alcotest.test_case "2-coloring of even path is forced after assignment" `Quick (fun () ->
        let ctx = Arc_consistency.create (path 3) k2 in
        check "establish" true (Arc_consistency.establish ctx);
        check "assign" true (Arc_consistency.assign ctx 0 0);
        check "all singleton" true (Arc_consistency.all_singleton ctx);
        Alcotest.check mapping_testable "solution" [| 0; 1; 0 |] (Arc_consistency.solution ctx));
    Alcotest.test_case "push/pop restores domains" `Quick (fun () ->
        let ctx = Arc_consistency.create (path 3) k2 in
        check "establish" true (Arc_consistency.establish ctx);
        Arc_consistency.push ctx;
        check "assign" true (Arc_consistency.assign ctx 0 0);
        Arc_consistency.pop ctx;
        check_int "domain restored" 2 (Arc_consistency.dom_size ctx 0));
    Alcotest.test_case "odd cycle stays arc-consistent (AC is incomplete)" `Quick (fun () ->
        (* 2-coloring C5 has no solution, yet plain AC does not detect it:
           this is exactly why the k-pebble game / k-consistency is needed. *)
        let ctx = Arc_consistency.create (undirected_cycle 5) k2 in
        check "establish ok" true (Arc_consistency.establish ctx));
    Alcotest.test_case "table state survives push/assign/pop round trips" `Quick
      (fun () ->
        let ctx = Arc_consistency.create (path 4) (clique 3) in
        check "establish" true (Arc_consistency.establish ctx);
        let snapshot () = List.init 4 (Arc_consistency.dom_values ctx) in
        let before = snapshot () in
        Arc_consistency.push ctx;
        check "assign" true (Arc_consistency.assign ctx 0 0);
        Arc_consistency.pop ctx;
        Alcotest.(check (list (list int))) "domains restored" before (snapshot ());
        (* The live tables must be restored too, not just the domains:
           repeating the assignment has to reach the identical fixpoint. *)
        Arc_consistency.push ctx;
        check "assign again" true (Arc_consistency.assign ctx 0 0);
        let assigned = snapshot () in
        Arc_consistency.pop ctx;
        Arc_consistency.push ctx;
        check "assign a third time" true (Arc_consistency.assign ctx 0 0);
        Alcotest.(check (list (list int))) "same fixpoint" assigned (snapshot ());
        Arc_consistency.pop ctx;
        Alcotest.(check (list (list int))) "restored once more" before (snapshot ()));
    Alcotest.test_case "pop below the establish point restores full domains" `Quick
      (fun () ->
        (* path 3 -> path 3 prunes at establish time (the middle vertex is
           forced to 1), so a checkpoint taken before [establish] rewinds
           every removal and every killed tuple it made. *)
        let ctx = Arc_consistency.create (path 3) (path 3) in
        Arc_consistency.push ctx;
        check "establish" true (Arc_consistency.establish ctx);
        Alcotest.(check (list int)) "middle forced" [ 1 ] (Arc_consistency.dom_values ctx 1);
        Arc_consistency.pop ctx;
        check_int "full domain back" 3 (Arc_consistency.dom_size ctx 1);
        Alcotest.check_raises "assign needs an established context"
          (Invalid_argument "Arc_consistency.assign: context not established") (fun () ->
            ignore (Arc_consistency.assign ctx 0 0));
        check "re-establish after deep pop" true (Arc_consistency.establish ctx);
        Alcotest.(check (list int)) "middle forced again" [ 1 ]
          (Arc_consistency.dom_values ctx 1);
        check "assign after rebuild" true (Arc_consistency.assign ctx 0 0);
        check "fully forced" true (Arc_consistency.all_singleton ctx);
        Alcotest.check mapping_testable "solution" [| 0; 1; 2 |]
          (Arc_consistency.solution ctx));
    Alcotest.test_case "propagation reads the deadline, not the node limit" `Quick
      (fun () ->
        (* One fact against a 1,000-element target with one edge: building
           the context polls nothing, but establishing it dequeues about
           2,000 unsupported values. *)
        let b = digraph ~size:1000 [ (0, 1) ] in
        let expired = Budget.create ~timeout:0. () in
        Unix.sleepf 0.001;
        Alcotest.check_raises "deadline" (Budget.Exhausted Budget.Deadline) (fun () ->
            ignore (Arc_consistency.establish (Arc_consistency.create ~budget:expired (path 2) b)));
        let spent = Budget.create ~max_nodes:0 () in
        check "node limit ignored" true
          (Arc_consistency.establish (Arc_consistency.create ~budget:spent (path 2) b)));
    Alcotest.test_case "create on the G1200 self-pair allocates under 5M words" `Quick
      (fun () ->
        (* 6,000 atoms over a 6,000-tuple relation: a kill counter per
           (atom, target tuple) is 36M words, a live bitset per atom
           about 0.6M. *)
        let g =
          Structure_text.parse (In_channel.with_open_text "cli/g1200.st" In_channel.input_all)
        in
        let words () =
          let minor, _, major = Gc.counters () in
          minor +. major
        in
        let before = words () in
        let ctx = Arc_consistency.create g g in
        let allocated = words () -. before in
        check_int "full domains" 1200 (Arc_consistency.dom_size ctx 0);
        if allocated >= 5e6 then
          Alcotest.failf "create allocated %.0f words (bound 5M)" allocated);
    Alcotest.test_case "naive engine still answers the classics" `Quick (fun () ->
        let all _ _ = true in
        check "wiped" true
          (Oracle.Arc.closure ~restrict:all (path 2) (Structure.create graph_vocab ~size:1)
          = None);
        check "establish" true
          (Oracle.Arc.closure ~restrict:all (path 3) k2 = Some [| [ 0; 1 ]; [ 0; 1 ]; [ 0; 1 ] |]);
        check "assign" true
          (Oracle.Arc.closure ~restrict:(fun x v -> x <> 0 || v = 0) (path 3) k2
          = Some [| [ 0 ]; [ 1 ]; [ 0 ] |]));
  ]

(* ------------------------------------------------------------------ *)
(* Properties                                                           *)
(* ------------------------------------------------------------------ *)

(* A pair for the propagation differential: every relation of arity 2 or
   more holds a repeated-variable atom in [a], and [b] has up to 120
   tuples per relation, so an arity-3 table spans several words.  Up to
   three [(i, j)] remove value [j mod |B|] from element [i mod n] before
   [establish].  The script is a list of steps: [(0, _, _)] pops the
   last assignment, any other kind assigns the [i mod n]-th element its
   [j]-th remaining value. *)
let arbitrary_ac_script =
  let open QCheck.Gen in
  let gen =
    let* nrels = 1 -- 2 in
    let* arities = list_repeat nrels (1 -- 3) in
    let vocab = Vocabulary.create (List.mapi (fun i r -> (Printf.sprintf "R%d" i, r)) arities) in
    let side ~size ~tuples ~repeat =
      flatten_l
        (List.mapi
           (fun i arity ->
             let* ts = list_size (0 -- tuples) (array_repeat arity (0 -- (size - 1))) in
             let* x = 0 -- (size - 1) in
             let ts = if repeat && arity >= 2 then Array.init arity (fun j -> if j < 2 then x else (j * x) mod size) :: ts else ts in
             return (Printf.sprintf "R%d" i, ts))
           arities)
    in
    let* size_a = 1 -- 5 and* size_b = 1 -- 6 in
    let* rels_a = side ~size:size_a ~tuples:6 ~repeat:true in
    let* rels_b = side ~size:size_b ~tuples:120 ~repeat:false in
    let* removed = list_size (0 -- 3) (pair nat nat) in
    let* script = list_size (0 -- 12) (triple (0 -- 2) nat nat) in
    return
      ( Structure.of_relations vocab ~size:size_a rels_a,
        Structure.of_relations vocab ~size:size_b rels_b,
        List.map (fun (i, j) -> (i mod size_a, j mod size_b)) removed,
        script )
  in
  let pairs l = String.concat "; " (List.map (fun (i, j) -> Printf.sprintf "(%d,%d)" i j) l) in
  QCheck.make
    ~print:(fun (a, b, removed, script) ->
      Format.asprintf "A = %a@.B = %a@.removed = %s@.script = %s" Structure.pp a Structure.pp b
        (pairs removed)
        (String.concat "; " (List.map (fun (k, i, j) -> Printf.sprintf "(%d,%d,%d)" k i j) script)))
    gen

(* After [establish] and after every step, the domains are the oracle's
   closure without the removed values and under the assignments on the
   stack; after a wipeout the only step is a pop, and a pop restores the
   domains of its checkpoint. *)
let ac_script_agrees (a, b, removed, script) =
  let n = Structure.size a in
  let ctx = Arc_consistency.create a b in
  let doms () = Array.init n (Arc_consistency.dom_values ctx) in
  let agrees stack ok =
    let restrict y w =
      (not (List.mem (y, w) removed)) && List.for_all (fun (x, v, _) -> y <> x || w = v) stack
    in
    match Oracle.Arc.closure ~restrict a b with
    | None -> not ok
    | Some closure -> ok && doms () = closure
  in
  let rec run stack alive = function
    | [] -> true
    | (kind, i, j) :: rest -> (
      match stack with
      | (_, _, snapshot) :: below when kind = 0 || not alive ->
        Arc_consistency.pop ctx;
        doms () = snapshot && agrees below true && run below true rest
      | _ when not alive -> true
      | _ ->
        let x = i mod n in
        let values = Arc_consistency.dom_values ctx x in
        let v = List.nth values (j mod List.length values) in
        let snapshot = doms () in
        Arc_consistency.push ctx;
        let ok = Arc_consistency.assign ctx x v in
        let stack = (x, v, snapshot) :: stack in
        agrees stack ok && run stack ok rest)
  in
  List.iter (fun (x, v) -> ignore (Arc_consistency.remove_value ctx x v)) removed;
  let ok = Arc_consistency.establish ctx in
  agrees [] ok && run [] ok script


(* The staged check against one written out here.  [b] may lack a
   symbol of [a] or give it another arity, either side may hold nullary
   facts, [b]'s relations may sit on either side of the dense cap, and
   the mappings interleave every in-range mapping of the right length
   (into [b]'s first few elements) with ones of the wrong length or
   with values outside [b]'s universe, so rejected and accepted calls
   alternate on one closure. *)
let arbitrary_staged_check =
  let open QCheck.Gen in
  let relation ~size arity =
    if arity = 0 then map (fun p -> if p then [ [||] ] else []) bool
    else if size = 0 then return []
    else list_size (0 -- 5) (array_repeat arity (0 -- (size - 1)))
  in
  let gen =
    let* arities = list_size (1 -- 3) (0 -- 3) in
    let symbols = List.mapi (fun i r -> (Printf.sprintf "R%d" i, r)) arities in
    (* 0: same arity, 1: missing from [b], 2: arity one higher in [b]. *)
    let* shapes = list_repeat (List.length symbols) (frequencyl [ (6, 0); (1, 1); (1, 2) ]) in
    let symbols_b =
      List.concat
        (List.map2
           (fun (name, r) shape -> match shape with 0 -> [ (name, r) ] | 1 -> [] | _ -> [ (name, r + 1) ])
           symbols shapes)
    in
    let* size_a = 0 -- 4 and* size_b = 0 -- 3 in
    (* A wide [b] pads every relation of arity 2 or more with a tuple of
       its last element, 299: 300^2 cells is past the dense cap, so those
       probes take the hash path. *)
    let* wide = frequencyl [ (3, false); (1, true) ] in
    let universe_b = if wide then 300 else size_b in
    let side symbols ~size ~pad =
      flatten_l
        (List.map
           (fun (name, r) ->
             map
               (fun ts -> (name, if pad && r >= 2 then Array.make r (universe_b - 1) :: ts else ts))
               (relation ~size r))
           symbols)
    in
    let* rels_a = side symbols ~size:size_a ~pad:false
    and* rels_b = side symbols_b ~size:size_b ~pad:wide in
    let all =
      List.fold_left
        (fun acc _ -> List.concat_map (fun h -> List.init size_b (fun v -> v :: h)) acc)
        [ [] ] (List.init size_a Fun.id)
    in
    let* wrong =
      list_size (1 -- 12)
        (let* len = oneofl [ max 0 (size_a - 1); size_a; size_a + 1 ] in
         list_repeat len
           (frequency [ (8, -1 -- (size_b + 1)); (1, return (universe_b - 1)); (1, return universe_b) ]))
    in
    let* mappings = shuffle_l (List.map Array.of_list (all @ wrong)) in
    return
      ( Structure.of_relations (Vocabulary.create symbols) ~size:size_a rels_a,
        Structure.of_relations (Vocabulary.create symbols_b) ~size:universe_b rels_b,
        mappings )
  in
  QCheck.make
    ~print:(fun (a, b, mappings) ->
      Format.asprintf "A = %a@.B = %a@.mappings = %s" Structure.pp a Structure.pp b
        (String.concat "; " (List.map (Format.asprintf "%a" Tuple.pp) mappings)))
    gen

(* A relation of arity 0-3 whose largest entry puts it on either side
   of the 2^16-cell dense cap (base 256 vs 257 at arity 2, 40 vs 41 at
   arity 3, 65536 vs 65537 at arity 1) or well inside it, or the empty
   relation; with probes of every length from arity - 1 to arity + 1,
   entries from -2 to two past the largest, every member and every
   member with one entry moved. *)
let arbitrary_index_probe =
  let open QCheck.Gen in
  let gen =
    let* arity = 0 -- 3 in
    let* base =
      match arity with
      | 0 -> return 1
      | 1 -> oneofl [ 3; 65536; 65537 ]
      | 2 -> oneofl [ 3; 256; 257 ]
      | _ -> oneofl [ 3; 40; 41 ]
    in
    let entry = frequency [ (4, 0 -- min (base - 1) 4); (1, 0 -- (base - 1)) ] in
    let* ts = list_size (0 -- 8) (array_repeat arity entry) in
    let* reach = bool in
    let ts = if reach && arity > 0 then Array.make arity (base - 1) :: ts else ts in
    let* empty = frequencyl [ (5, false); (1, true) ] in
    let ts = if empty then [] else ts in
    let moved =
      List.concat_map
        (fun t -> List.init arity (fun j -> Array.mapi (fun i v -> if i = j then v + 1 else v) t))
        ts
    in
    let* random =
      list_size (1 -- 12)
        (let* len = oneofl [ max 0 (arity - 1); arity; arity + 1 ] in
         array_repeat len (frequency [ (4, -2 -- 5); (1, base - 3 -- (base + 1)) ]))
    in
    let* probes = shuffle_l (ts @ moved @ random) in
    return (Relation.of_list arity ts, probes)
  in
  QCheck.make
    ~print:(fun (r, probes) ->
      Format.asprintf "R = %a@.probes = %s" Relation.pp r
        (String.concat "; " (List.map (Format.asprintf "%a" Tuple.pp) probes)))
    gen

(* [mem_image] reads [len] entries of [src] from [at] through [map]:
   here [map] holds the probe after a junk prefix, and [src] points at
   it between junk entries that a gather reading more or fewer than
   [len] entries would pick up. *)
let gathered ix (p : Tuple.t) =
  let len = Array.length p in
  let map = Array.append [| 7; -1; 0 |] p and junk = [| 0; 2; 1 |] in
  let src = Array.concat [ junk; Array.init len (fun j -> 3 + j); junk ] in
  Relation.Index.mem_image ix ~map src ~at:(Array.length junk) ~len

let direct_is_homomorphism a b h =
  Array.length h = Structure.size a
  && Array.for_all (fun v -> v >= 0 && v < Structure.size b) h
  && List.for_all
       (fun (name, t) ->
         match Structure.relation b name with
         | r -> Relation.arity r = Array.length t && Relation.mem r (Array.map (fun x -> h.(x)) t)
         | exception Not_found -> false)
       (Structure.facts a)

let property_tests =
  [
    qtest ~count:500 "index mem and mem_image agree with the tuple set" arbitrary_index_probe
      (fun (r, probes) ->
        let ix = Relation.index r in
        List.for_all
          (fun p ->
            let expected = List.exists (Tuple.equal p) (Relation.elements r) in
            Relation.Index.mem ix p = expected && gathered ix p = expected)
          probes);
    qtest ~count:500 "staged is_homomorphism agrees with a direct check" arbitrary_staged_check
      (fun (a, b, mappings) ->
        let check = Homomorphism.is_homomorphism a b in
        List.for_all (fun h -> check h = direct_is_homomorphism a b h) mappings);
    qtest ~count:300 "find agrees with brute force" (arbitrary_pair ())
      (fun (a, b) -> Homomorphism.exists a b = brute_force_exists a b);
    qtest ~count:200 "found mappings are homomorphisms" (arbitrary_pair ())
      (fun (a, b) ->
        match Homomorphism.find a b with
        | None -> true
        | Some h -> Homomorphism.is_homomorphism a b h);
    qtest ~count:100 "disjoint union: hom iff both sides hom"
      (QCheck.pair (arbitrary_pair ()) QCheck.unit)
      (fun ((a, b), ()) ->
        let c = Structure.disjoint_union a a in
        Homomorphism.exists c b = Homomorphism.exists a b);
    qtest ~count:100 "product projects to both factors" (arbitrary_pair ())
      (fun (a, b) ->
        let p = Testkit.Workloads.product a b in
        let m = Structure.size b in
        if Structure.size p = 0 then true
        else
          let proj1 = Array.init (Structure.size p) (fun x -> x / m) in
          let proj2 = Array.init (Structure.size p) (fun x -> x mod m) in
          Homomorphism.is_homomorphism p a proj1 && Homomorphism.is_homomorphism p b proj2);
    qtest ~count:150 "arc-consistency wipeout implies no hom" (arbitrary_pair ())
      (fun (a, b) ->
        let ctx = Arc_consistency.create a b in
        Arc_consistency.establish ctx || not (brute_force_exists a b));
    qtest ~count:300 "compact table agrees with the naive engine on establish"
      (arbitrary_pair ())
      (fun (a, b) ->
        let ctx = Arc_consistency.create a b in
        let ok = Arc_consistency.establish ctx in
        (* On wipeout propagation may stop at a partial state, so only
           compare the fixpoints when it succeeds. *)
        match Oracle.Arc.closure ~restrict:(fun _ _ -> true) a b with
        | None -> not ok
        | Some doms -> ok && Array.init (Structure.size a) (Arc_consistency.dom_values ctx) = doms);
    qtest ~count:300 "compact table agrees with the naive engine across push/assign/pop sequences"
      arbitrary_ac_script ac_script_agrees;
    qtest ~count:100 "binarize preserves hom existence (Lemma 5.5)"
      (arbitrary_pair ~max_size_a:3 ~max_size_b:3 ~max_tuples:3 ())
      (fun (a, b) ->
        Homomorphism.exists a b
        = Homomorphism.exists (Binarize.encode a) (Binarize.encode b));
    qtest ~count:100 "economical source encoding also preserves hom existence"
      (arbitrary_pair ~max_size_a:3 ~max_size_b:3 ~max_tuples:3 ())
      (fun (a, b) ->
        Homomorphism.exists a b
        = Homomorphism.exists (Binarize.encode_economical a) (Binarize.encode b));
    qtest ~count:100 "economical encoding is never larger"
      (arbitrary_structure ~max_size:4 ~max_tuples:5 ())
      (fun a ->
        Structure.total_tuples (Binarize.encode_economical a)
        <= Structure.total_tuples (Binarize.encode a));
    qtest ~count:80 "product is the categorical product"
      (QCheck.make
         ~print:(fun (a, b, c) ->
           Format.asprintf "A=%a@.B=%a@.C=%a" Structure.pp a Structure.pp b Structure.pp c)
         QCheck.Gen.(
           let* nrels = 1 -- 2 in
           let* arities = list_repeat nrels (1 -- 2) in
           let vocab =
             Vocabulary.create (List.mapi (fun i ar -> (Printf.sprintf "R%d" i, ar)) arities)
           in
           let side ms mt =
             let* size = 1 -- ms in
             let+ per_rel =
               flatten_l
                 (List.mapi
                    (fun i ar ->
                      let+ tuples =
                        list_size (0 -- mt) (fun st -> gen_tuple ~arity:ar ~size st)
                      in
                      (Printf.sprintf "R%d" i, tuples))
                    arities)
             in
             Structure.of_relations vocab ~size per_rel
           in
           let* a = side 3 3 in
           let* b = side 3 3 in
           let+ c = side 3 3 in
           (a, b, c)))
      (fun (a, b, c) ->
        Homomorphism.exists c (Testkit.Workloads.product a b)
        = (Homomorphism.exists c a && Homomorphism.exists c b));
    qtest ~count:100 "enumerate finds them all (vs brute force count)"
      (arbitrary_pair ~max_size_a:3 ~max_size_b:2 ~max_tuples:3 ())
      (fun (a, b) ->
        let n = Structure.size a and m = Structure.size b in
        let count = ref 0 in
        let h = Array.make n 0 in
        let is_hom = Homomorphism.is_homomorphism a b in
        let rec loop i =
          if i = n then begin
            if is_hom h then incr count
          end
          else
            for v = 0 to m - 1 do
              h.(i) <- v;
              loop (i + 1)
            done
        in
        (if n = 0 then count := 1 else loop 0);
        Homomorphism.count a b = !count);
  ]


(* ------------------------------------------------------------------ *)
(* Tagged sums (Section 4's A + B encoding)                             *)
(* ------------------------------------------------------------------ *)

let sum_tests =
  [
    Alcotest.test_case "sum of two graphs" `Quick (fun () ->
        let s = Sum.encode (path 2) (clique 2) in
        check_int "universe" 4 (Structure.size s);
        check "D1 marks the left half" true (Structure.mem_tuple s Sum.d1 [| 0 |]);
        check "D2 marks the right half" true (Structure.mem_tuple s Sum.d2 [| 2 |]);
        check "left copy" true (Structure.mem_tuple s (Sum.left_name "E") [| 0; 1 |]);
        check "right copy shifted" true
          (Structure.mem_tuple s (Sum.right_name "E") [| 2; 3 |]);
        check "no mixing" false (Structure.mem_tuple s (Sum.left_name "E") [| 2; 3 |]));
    Alcotest.test_case "vocabulary mismatch rejected" `Quick (fun () ->
        let other = Structure.create (Vocabulary.create [ ("F", 2) ]) ~size:1 in
        check "raises" true
          (try
             ignore (Sum.encode (path 2) other);
             false
           with Invalid_argument _ -> true));
    Alcotest.test_case "marker counts" `Quick (fun () ->
        let s = Sum.encode (path 3) (path 2) in
        check_int "D1" 3 (Relation.cardinal (Structure.relation s Sum.d1));
        check_int "D2" 2 (Relation.cardinal (Structure.relation s Sum.d2)));
  ]

(* ------------------------------------------------------------------ *)
(* Structure text format                                                *)
(* ------------------------------------------------------------------ *)

let text_tests =
  [
    Alcotest.test_case "parse a small structure" `Quick (fun () ->
        let s = Structure_text.parse "# comment\nsize 3\nrel P 1\nE 0 1\nE 1 2\nP 0\n" in
        check_int "size" 3 (Structure.size s);
        check "edge" true (Structure.mem_tuple s "E" [| 0; 1 |]);
        check "unary" true (Structure.mem_tuple s "P" [| 0 |]));
    Alcotest.test_case "empty relations need declarations" `Quick (fun () ->
        let s = Structure_text.parse "size 2\nrel E 2\n" in
        check "declared" true (Vocabulary.mem (Structure.vocabulary s) "E");
        check "empty" true (Relation.is_empty (Structure.relation s "E")));
    Alcotest.test_case "errors are reported" `Quick (fun () ->
        let bad text =
          match Structure_text.parse text with
          | _ -> false
          | exception Structure_text.Parse_error _ -> true
        in
        check "no size" true (bad "E 0 1\n");
        check "arity conflict" true (bad "size 2\nE 0 1\nE 0\n");
        check "out of range" true (bad "size 2\nE 0 5\n");
        check "garbage" true (bad "size 2\nE 0 x\n"));
    qtest ~count:100 "print/parse round trip" (arbitrary_structure ())
      (fun a -> Structure.equal a (Structure_text.parse (Structure_text.print a)));
  ]

let () =
  Alcotest.run "relational"
    [
      ("tuple", tuple_tests);
      ("vocabulary", vocabulary_tests);
      ("relation", relation_tests);
      ("structure", structure_tests);
      ("homomorphism", hom_unit_tests);
      ("core", core_tests);
      ("arc-consistency", ac_tests);
      ("sum", sum_tests);
      ("structure-text", text_tests);
      ("properties", property_tests);
    ]
