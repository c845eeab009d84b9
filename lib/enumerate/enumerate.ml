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
   decomposition for bounded treewidth.  Every answer is checked, by
   the check staged at the first answer: the join evaluator never
   builds B's hash index, and a stream without answers needs none. *)
let stream_of ~budget tree a b =
  Homomorphism.generator (fun ~yield ->
      Budget.check budget;
      let check = lazy (Homomorphism.is_homomorphism a b) in
      Join_eval.enumerate ~budget (tree ()) ~yield:(fun h ->
          assert (Lazy.force check h);
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

(* The one route choice, read by [plan] and [count]: join forest, then
   width-capped decomposition, then backtracking.  A tractable route
   comes with its join-evaluation tree, built when first forced. *)
let choose ~max_width ~budget a b =
  match Hypergraph.join_forest a with
  | Some { facts; parent } ->
    (Acyclic, Some (fun () -> Join_eval.of_forest ~budget a ~facts ~parent b))
  | None -> (
    match Td_solver.decompose ~cap:max_width a with
    | Some td ->
      ( Bounded_treewidth (Tree_decomposition.width td),
        Some (fun () -> Join_eval.of_decomposition ~budget td a b) )
    | None -> (Backtracking, None))

let plan ?(max_width = 3) ?(budget = Budget.unlimited) a b =
  let route, tree = choose ~max_width ~budget a b in
  let seq =
    match tree with
    | Some tree -> stream_of ~budget tree a b
    | None -> Homomorphism.search_seq ~budget a b
  in
  { route; seq = metered route seq }

let stream ?max_width ?limit ?budget a b =
  let { seq; _ } = plan ?max_width ?budget a b in
  match limit with Some l -> Seq.take l seq | None -> seq

(* At the limit, one more pull tells "exactly [limit] answers" from a
   longer stream. *)
let iter_limited ?limit f seq =
  let rec go left seq =
    match seq () with
    | Seq.Nil -> true
    | Seq.Cons _ when left = 0 -> false
    | Seq.Cons (h, rest) ->
      f h;
      go (left - 1) rest
  in
  go (Option.value ~default:max_int limit) seq

(* ------------------------------------------------------------------ *)
(* Counting with the component product rule.                           *)
(* ------------------------------------------------------------------ *)

let count_connected ~max_width ~budget piece b =
  match choose ~max_width ~budget piece b with
  | _, Some tree -> Join_eval.count (tree ())
  | _, None -> Homomorphism.count ~budget piece b

let count ?(max_width = 3) ?(budget = Budget.unlimited) a b =
  Budget.check budget;
  (* A source without elements has no parts to multiply over, so its
     nullary facts are checked here.  Only the component stage runs:
     [#hom] factors exactly over components, and a deduplicated
     component contributes its count once per copy.  Fold and core
     would preserve existence, not counts. *)
  if not (Homomorphism.nullary_facts_hold a b) then 0
  else
    Array.fold_left
      (fun acc (part : Preprocess.part) ->
        if acc = 0 then 0
        else
          let piece = count_connected ~max_width ~budget part.piece b in
          Homomorphism.checked_mul acc (Homomorphism.checked_pow piece part.copies))
      1 (Preprocess.components a).parts
