(* Shared test utilities: independent brute-force reference algorithms and
   random generators.  The brute-force homomorphism test enumerates all
   |B|^|A| mappings, so keep instances tiny. *)

open Relational

(* Every witness this module hands out goes through the trusted
   certificate checker, so no test asserts satisfiability on the word of
   solver code alone. *)
let certified_witness a b h =
  if not (Certificate.check a b (Certificate.Witness h)) then
    Alcotest.failf "witness %a rejected by the certificate checker" Tuple.pp h;
  h

(* No shortcut for an empty source or target: the loop starts from the
   all-zero map, which [is_homomorphism] rejects when [B] is empty, and
   the empty map still has to satisfy the nullary facts. *)
let brute_force_hom a b =
  let n = Structure.size a and m = Structure.size b in
  let h = Array.make n 0 in
  let rec next i =
    if i < 0 then false
    else if h.(i) + 1 < m then begin
      h.(i) <- h.(i) + 1;
      true
    end
    else begin
      h.(i) <- 0;
      next (i - 1)
    end
  in
  let rec loop () =
    if Homomorphism.is_homomorphism a b h then
      Some (certified_witness a b (Array.copy h))
    else if next (n - 1) then loop ()
    else None
  in
  loop ()

(* The solver's three-valued answer with its certificate validated: fails
   the test outright on any certificate the checker rejects. *)
let certified_verdict a b (r : Core.Solver.result) =
  match r.Core.Solver.verdict with
  | Core.Solver.Sat h ->
    ignore (certified_witness a b h);
    Some true
  | Core.Solver.Unsat c ->
    if not (Certificate.check a b c) then
      Alcotest.failf "%s certificate of route %s rejected by the checker"
        (Certificate.describe c)
        (Core.Solver.route_name r.Core.Solver.route);
    Some false
  | Core.Solver.Unknown _ -> None

let brute_force_exists a b = brute_force_hom a b <> None

(* ------------------------------------------------------------------ *)
(* Random generators (QCheck).                                          *)
(* ------------------------------------------------------------------ *)

let gen_tuple ~arity ~size st = Array.init arity (fun _ -> Random.State.int st size)

let gen_structure ?(max_rels = 2) ?(max_arity = 3) ?(max_size = 4) ?(max_tuples = 5) () =
  QCheck.Gen.(
    let* nrels = 1 -- max_rels in
    let* arities = list_repeat nrels (1 -- max_arity) in
    let vocab =
      Vocabulary.create (List.mapi (fun i a -> (Printf.sprintf "R%d" i, a)) arities)
    in
    let* size = 1 -- max_size in
    let* per_rel =
      flatten_l
        (List.mapi
           (fun i a ->
             let+ tuples =
               list_size (0 -- max_tuples) (fun st -> gen_tuple ~arity:a ~size st)
             in
             (Printf.sprintf "R%d" i, tuples))
           arities)
    in
    return (Structure.of_relations vocab ~size per_rel))

(* A random pair (A, B) over a shared vocabulary. *)
let gen_pair ?(max_rels = 2) ?(max_arity = 3) ?(max_size_a = 4) ?(max_size_b = 3)
    ?(max_tuples = 5) () =
  QCheck.Gen.(
    let* nrels = 1 -- max_rels in
    let* arities = list_repeat nrels (1 -- max_arity) in
    let vocab =
      Vocabulary.create (List.mapi (fun i a -> (Printf.sprintf "R%d" i, a)) arities)
    in
    let gen_side max_size max_tuples =
      let* size = 1 -- max_size in
      let+ per_rel =
        flatten_l
          (List.mapi
             (fun i a ->
               let+ tuples =
                 list_size (0 -- max_tuples) (fun st -> gen_tuple ~arity:a ~size st)
               in
               (Printf.sprintf "R%d" i, tuples))
             arities)
      in
      Structure.of_relations vocab ~size per_rel
    in
    let* a = gen_side max_size_a max_tuples in
    let* b = gen_side max_size_b (max_tuples * 2) in
    return (a, b))

let arbitrary_structure ?max_rels ?max_arity ?max_size ?max_tuples () =
  QCheck.make
    ~print:(fun a -> Format.asprintf "%a" Structure.pp a)
    (gen_structure ?max_rels ?max_arity ?max_size ?max_tuples ())

let arbitrary_pair ?max_rels ?max_arity ?max_size_a ?max_size_b ?max_tuples () =
  QCheck.make
    ~print:(fun (a, b) ->
      Format.asprintf "A = %a@.B = %a" Structure.pp a Structure.pp b)
    (gen_pair ?max_rels ?max_arity ?max_size_a ?max_size_b ?max_tuples ())

(* Random Boolean relation closed under a componentwise operation. *)
let close2 op masks =
  let rec fix s =
    let s' =
      List.fold_left
        (fun acc a -> List.fold_left (fun acc b -> op a b :: acc) acc s)
        s s
    in
    let s' = List.sort_uniq Int.compare s' in
    if List.length s' = List.length s then s' else fix s'
  in
  fix (List.sort_uniq Int.compare masks)

let close3 op masks =
  let rec fix s =
    let s' =
      List.fold_left
        (fun acc a ->
          List.fold_left
            (fun acc b -> List.fold_left (fun acc c -> op a b c :: acc) acc s)
            acc s)
        s s
    in
    let s' = List.sort_uniq Int.compare s' in
    if List.length s' = List.length s then s' else fix s'
  in
  fix (List.sort_uniq Int.compare masks)

let gen_masks ~arity =
  QCheck.Gen.(
    list_size (0 -- 6) (0 -- ((1 lsl arity) - 1)) >|= List.sort_uniq Int.compare)

let gen_boolean_relation_in cls ~arity =
  QCheck.Gen.(
    let+ masks = gen_masks ~arity in
    let masks =
      match (cls : Schaefer.Classify.schaefer_class) with
      | Schaefer.Classify.Zero_valid -> 0 :: masks
      | Schaefer.Classify.One_valid -> ((1 lsl arity) - 1) :: masks
      | Schaefer.Classify.Horn -> close2 Schaefer.Boolean_relation.tuple_and masks
      | Schaefer.Classify.Dual_horn -> close2 Schaefer.Boolean_relation.tuple_or masks
      | Schaefer.Classify.Bijunctive -> close3 Schaefer.Boolean_relation.tuple_majority masks
      | Schaefer.Classify.Affine -> close3 Schaefer.Boolean_relation.tuple_xor3 masks
    in
    Schaefer.Boolean_relation.create arity (List.sort_uniq Int.compare masks))

(* A random Boolean structure all of whose relations lie in [cls]. *)
let gen_schaefer_structure cls =
  QCheck.Gen.(
    let* nrels = 1 -- 2 in
    let* arities = list_repeat nrels (1 -- 3) in
    let+ rels =
      flatten_l (List.map (fun a -> gen_boolean_relation_in cls ~arity:a) arities)
    in
    let vocab =
      Vocabulary.create (List.mapi (fun i a -> (Printf.sprintf "R%d" i, a)) arities)
    in
    Structure.of_relations vocab ~size:2
      (List.mapi
         (fun i r -> (Printf.sprintf "R%d" i, Schaefer.Boolean_relation.tuples r))
         rels))

(* Random source structure over the vocabulary of a given target. *)
let gen_source_for target ~max_size ~max_tuples =
  QCheck.Gen.(
    let vocab = Structure.vocabulary target in
    let* size = 1 -- max_size in
    let+ per_rel =
      flatten_l
        (List.map
           (fun (name, arity) ->
             let+ tuples =
               list_size (0 -- max_tuples) (fun st -> gen_tuple ~arity ~size st)
             in
             (name, tuples))
           (Vocabulary.symbols vocab))
    in
    Structure.of_relations vocab ~size per_rel)

(* Random CNF formulas. *)
let gen_cnf ~nvars ~max_clauses ~max_clause_len =
  QCheck.Gen.(
    let gen_lit =
      let* v = 0 -- (nvars - 1) in
      let+ s = bool in
      if s then Schaefer.Cnf.pos v else Schaefer.Cnf.neg v
    in
    let+ clauses = list_size (0 -- max_clauses) (list_size (1 -- max_clause_len) gen_lit) in
    Schaefer.Cnf.make ~nvars clauses)

let naive_sat f = Schaefer.Cnf.models f <> []

let mapping_testable =
  Alcotest.testable
    (fun ppf h -> Relational.Tuple.pp ppf h)
    (fun x y -> Relational.Tuple.equal x y)

let qtest ?(count = 200) name arb prop =
  QCheck_alcotest.to_alcotest (QCheck.Test.make ~count ~name arb prop)

(* ------------------------------------------------------------------ *)
(* Small graph builders (vocabulary {E/2}).                             *)
(* ------------------------------------------------------------------ *)

let graph_vocab = Vocabulary.create [ ("E", 2) ]

let digraph ~size edges =
  Structure.of_relations graph_vocab ~size
    [ ("E", List.map (fun (u, v) -> [| u; v |]) edges) ]

let undirected ~size edges =
  Structure.of_relations graph_vocab ~size
    [ ("E", List.concat_map (fun (u, v) -> [ [| u; v |]; [| v; u |] ]) edges) ]

(* Directed path 0 -> 1 -> ... -> n-1. *)
let path n = digraph ~size:n (List.init (n - 1) (fun i -> (i, i + 1)))

(* Directed cycle on n nodes. *)
let directed_cycle n = digraph ~size:n (List.init n (fun i -> (i, (i + 1) mod n)))

(* Undirected cycle on n nodes. *)
let undirected_cycle n = undirected ~size:n (List.init n (fun i -> (i, (i + 1) mod n)))

(* Complete loopless graph on n nodes (both edge directions). *)
let clique n =
  let edges = ref [] in
  for i = 0 to n - 1 do
    for j = 0 to n - 1 do
      if i <> j then edges := (i, j) :: !edges
    done
  done;
  digraph ~size:n !edges

(* Single undirected edge: the 2-colorability target. *)
let k2 = undirected ~size:2 [ (0, 1) ]
