open Relational
open Treewidth

type route = Acyclic | Bounded_treewidth of int | Backtracking

let route_name = function
  | Acyclic -> "acyclic-stream"
  | Bounded_treewidth w -> Printf.sprintf "treewidth-stream(%d)" w
  | Backtracking -> "backtracking-stream"

type plan = { route : route; seq : Homomorphism.mapping Seq.t }

(* Both tractable routes stream off all-row tables of the one join
   evaluator: the GYO join forest for acyclic sources, the min-fill
   decomposition for bounded treewidth. *)
let stream_of ~budget tree a b =
  Homomorphism.generator (fun ~yield ->
      Budget.check budget;
      Join_eval.enumerate ~budget (tree ()) ~yield:(fun h ->
          assert (Homomorphism.is_homomorphism a b h);
          yield (Array.copy h)))

(* ------------------------------------------------------------------ *)
(* Route dispatch.                                                     *)
(* ------------------------------------------------------------------ *)

let metered route seq =
  Telemetry.count (Printf.sprintf "enumerate.route.%s" (route_name route)) 1;
  Seq.map
    (fun h ->
      Telemetry.count "enumerate.answers" 1;
      h)
    seq

let plan ?(max_width = 3) ?(budget = Budget.unlimited) ?pool a b =
  match Hypergraph.join_forest a with
  | Some { facts; parent } ->
    let tree () = Join_eval.of_forest ~budget a ~facts ~parent b in
    { route = Acyclic; seq = metered Acyclic (stream_of ~budget tree a b) }
  | None ->
    let td = Td_solver.decompose a in
    let w = Tree_decomposition.width td in
    if w <= max_width then
      let tree () = Join_eval.of_decomposition ~budget td a b in
      { route = Bounded_treewidth w;
        seq = metered (Bounded_treewidth w) (stream_of ~budget tree a b)
      }
    else
      { route = Backtracking;
        seq = metered Backtracking (Homomorphism.search_seq ~budget ?pool a b)
      }

let stream ?max_width ?limit ?budget ?pool a b =
  let { seq; _ } = plan ?max_width ?budget ?pool a b in
  match limit with Some l -> Seq.take l seq | None -> seq

(* ------------------------------------------------------------------ *)
(* Counting with the component product rule.                           *)
(* ------------------------------------------------------------------ *)

let count_connected ~max_width ~budget piece b =
  match Hypergraph.join_forest piece with
  | Some { facts; parent } ->
    Join_eval.count (Join_eval.of_forest ~budget piece ~facts ~parent b)
  | None ->
    let td = Td_solver.decompose piece in
    if Tree_decomposition.width td <= max_width then
      Td_solver.count ~budget piece b
    else Homomorphism.count ~budget piece b

let count ?(max_width = 3) ?(budget = Budget.unlimited) a b =
  Budget.check budget;
  (* A source without elements has no parts to multiply over, so its
     nullary facts are checked here.  Only the count-compatible shrink is
     used: component decomposition with textual dedup ([#hom] factors
     exactly over components, and a deduplicated component contributes
     its count once per copy).  The per-part fold/core retraction in
     [shrink] is deliberately ignored — retraction preserves existence,
     not counts. *)
  if not (Homomorphism.nullary_facts_hold a b) then 0
  else
    Array.fold_left
      (fun acc (part : Preprocess.part) ->
        if acc = 0 then 0
        else
          let piece = count_connected ~max_width ~budget part.piece b in
          Homomorphism.checked_mul acc (Homomorphism.checked_pow piece part.copies))
      1 (Preprocess.shrink_source ~budget a).parts
