open Relational

(* Certificate builders for the dispatcher's routes.  Everything here is
   untrusted construction: each function re-expresses an [Unsat] answer in
   a shape that the trusted [Certificate.check] validates against raw
   tuples.  The Schaefer and Hell–Nešetřil refutations come from the
   deciding passes themselves. *)

(* An empty target universe against a nonempty source is refuted by a
   childless case split: the first element has no possible image. *)
let trivial_unsat a b =
  if Structure.size b = 0 && Structure.size a > 0 then
    Some (Certificate.Search_tree (Certificate.Split { elem = 0; children = [] }))
  else None

let of_schaefer_direct = Schaefer.Uniform.refute

let of_booleanized = Schaefer.Booleanize.refute

(* Hell–Nešetřil route: the target is loop-free bipartite (a loopy target
   never refutes), so an [Unsat] answer means the source has an odd closed
   walk, which its failed 2-colouring returns. *)
let of_graph a b =
  match trivial_unsat a b with
  | Some c -> Some c
  | None -> (
    match Schaefer.Uniform.empty_relation_refutation a b with
    | Some c -> Some c
    | None -> (
      match
        ( Graph_dichotomy.edge_symbol b,
          Graph_dichotomy.two_colouring b,
          Graph_dichotomy.two_colouring a )
      with
      | Some symbol, Ok colouring, Error walk ->
        Some (Certificate.Odd_walk { symbol; walk; colouring })
      | _ -> None))

let of_acyclic a b =
  match trivial_unsat a b with
  | Some c -> Some c
  | None ->
    Option.map
      (fun forest ->
        Certificate.Semijoin_empty
          {
            facts =
              Array.map
                (fun (symbol, fact) -> { Certificate.symbol; fact })
                forest.Treewidth.Hypergraph.facts;
            parent = forest.Treewidth.Hypergraph.parent;
          })
      (Treewidth.Hypergraph.join_forest a)

let of_treewidth td a b =
  match trivial_unsat a b with
  | Some c -> Some c
  | None ->
    (* Rooted exactly as the DP roots it, so the checker recomputes the
       very same bottom-up tables. *)
    Some
      (Certificate.Dp_empty
         {
           bags =
             Array.map (List.sort_uniq Int.compare)
               td.Treewidth.Tree_decomposition.bags;
           parent = Treewidth.Join_eval.rooted td;
         })

(* The emptied winning family arrives as the game's chronological log of
   forth failures; an empty target needs the one-step derivation "the
   empty position cannot place element 0". *)
let of_consistency ~trace b =
  if Structure.size b = 0 then Certificate.Spoiler_win [ ([], 0) ]
  else Certificate.Spoiler_win trace

let of_backtracking ?budget a b =
  Option.map
    (fun tree -> Certificate.Search_tree tree)
    (Certificate.refute_by_search ?budget a b)
