open Relational

type origin = { symbol : string; fact : Tuple.t }

type lit = { elem : int; sign : bool }

type iclause = { clause_of : origin; lits : lit list }

type iequation = { equation_of : origin; elems : int list; rhs : bool }

type config = (int * int) list

type search_tree =
  | Conflict of origin
  | Split of { elem : int; children : (int * search_tree) list }

type shrink_step = {
  shrunk : Structure.t;
  embed : int array;
  fold : int array option;
}

type t =
  | Witness of int array
  | Empty_relation of origin
  | Unit_refutation of step list
  | Implication_cycle of {
      pivot : lit;
      forward : (iclause * lit) list;
      backward : (iclause * lit) list;
    }
  | Affine_contradiction of iequation list
  | Odd_walk of { symbol : string; walk : int list; colouring : int array }
  | Semijoin_empty of { facts : origin array; parent : int array }
  | Dp_empty of { bags : int list array; parent : int array }
  | Spoiler_win of (config * int) list
  | Search_tree of search_tree
  | Via_booleanization of { bits : int; inner : t }
  | Via_preprocess of {
      source : shrink_step list;
      target : shrink_step option;
      inner : t;
    }

and step = { clause : iclause; forces : lit option }

(* ------------------------------------------------------------------ *)
(* Shared primitives.  Everything below touches the instance only      *)
(* through [Structure.relation] / tuple equality.                      *)
(* ------------------------------------------------------------------ *)

let relation_of s name =
  match Structure.relation s name with
  | r -> Some r
  | exception Not_found -> None

let in_source a { symbol; fact } =
  match relation_of a symbol with
  | Some r -> Relation.mem r fact
  | None -> false

(* [t'] respects the repetition pattern of [t]: equal source entries take
   equal image entries, so "the image of element [t.(i)] is [t'.(i)]" is
   well defined. *)
let repeat_consistent (t : Tuple.t) (t' : Tuple.t) =
  let ok = ref true in
  Array.iteri
    (fun i x ->
      Array.iteri (fun j y -> if x = y && t'.(i) <> t'.(j) then ok := false) t)
    t;
  !ok

(* Image of element [e] under the candidate tuple [t'] for the fact [t]. *)
let value_of (t : Tuple.t) (t' : Tuple.t) e =
  let k = Array.length t in
  let rec find i = if i >= k then None else if t.(i) = e then Some t'.(i) else find (i + 1) in
  find 0

(* A fact of [A] entails a property of homomorphism images when every
   possible image tuple — same length, repeat-consistent — satisfies it.
   An absent or empty target relation entails everything vacuously (and
   indeed no homomorphism exists then, cf. [Empty_relation]). *)
let entails a b origin pred =
  in_source a origin
  && (match relation_of b origin.symbol with
     | None -> true
     | Some r ->
       Relation.for_all
         (fun t' ->
           Array.length t' <> Array.length origin.fact
           || (not (repeat_consistent origin.fact t'))
           || pred t')
         r)

let boolean_of_value = function 0 -> Some false | 1 -> Some true | _ -> None

(* Literal truth under the image tuple, read as [h(elem) = 0/1].  A
   literal over an element foreign to the fact, or a non-Boolean image
   value, is never established. *)
let lit_sat (t : Tuple.t) (t' : Tuple.t) l =
  match value_of t t' l.elem with
  | Some v -> (
    match boolean_of_value v with Some bv -> bv = l.sign | None -> false)
  | None -> false

let entails_clause a b c =
  entails a b c.clause_of (fun t' -> List.exists (lit_sat c.clause_of.fact t') c.lits)

let entails_equation a b e =
  let distinct =
    List.length (List.sort_uniq Int.compare e.elems) = List.length e.elems
  in
  distinct
  && entails a b e.equation_of (fun t' ->
         let rec xor acc = function
           | [] -> Some acc
           | x :: rest -> (
             match value_of e.equation_of.fact t' x with
             | None -> None
             | Some v -> (
               match boolean_of_value v with
               | None -> None
               | Some bv -> xor (if bv then not acc else acc) rest))
         in
         xor false e.elems = Some e.rhs)

let negate l = { l with sign = not l.sign }

(* ------------------------------------------------------------------ *)
(* Form-by-form validation.                                            *)
(* ------------------------------------------------------------------ *)

let check_witness a b h =
  Array.length h = Structure.size a
  && Array.for_all (fun v -> 0 <= v && v < Structure.size b) h
  && Structure.fold_tuples
       (fun name t ok ->
         ok
         &&
         match relation_of b name with
         | Some r -> Relation.mem r (Array.map (fun x -> h.(x)) t)
         | None -> false)
       a true

let check_empty_relation a b origin =
  in_source a origin
  && (match relation_of b origin.symbol with
     | None -> true
     | Some r ->
       (* Tuples of a different arity can never be homomorphic images. *)
       Relation.for_all
         (fun t' -> Array.length t' <> Array.length origin.fact)
         r)

let check_unit_refutation a b steps =
  let assigned : (int, bool) Hashtbl.t = Hashtbl.create 16 in
  let false_already l =
    match Hashtbl.find_opt assigned l.elem with
    | Some v -> v = not l.sign
    | None -> false
  in
  let rec go = function
    | [] -> false
    | { clause; forces } :: rest ->
      entails_clause a b clause
      && (match forces with
         | None ->
           (* Closing conflict: an entailed clause, every literal of which
              propagation has already falsified. *)
           List.for_all false_already clause.lits
         | Some l ->
           List.exists (( = ) l) clause.lits
           && List.for_all (fun l' -> l' = l || false_already l') clause.lits
           && (match Hashtbl.find_opt assigned l.elem with
              | None ->
                Hashtbl.replace assigned l.elem l.sign;
                go rest
              | Some v -> v = l.sign && go rest))
  in
  go steps

let check_implication_cycle a b pivot forward backward =
  (* One step [cur => next] is justified by an entailed clause all of whose
     literals are [negate cur] or [next] (covering the unit clauses
     [not cur] and [next] as degenerate cases). *)
  let rec chain cur goal = function
    | [] -> cur = goal
    | (c, next) :: rest ->
      c.lits <> []
      && List.for_all (fun l -> l = negate cur || l = next) c.lits
      && entails_clause a b c
      && chain next goal rest
  in
  chain pivot (negate pivot) forward && chain (negate pivot) pivot backward

let check_affine_contradiction a b equations =
  equations <> []
  && List.for_all (entails_equation a b) equations
  &&
  (* Formal XOR of all equations: coefficients cancel, right sides do not. *)
  let parity = Hashtbl.create 16 in
  List.iter
    (fun e ->
      List.iter
        (fun x ->
          Hashtbl.replace parity x
            (not (Option.value ~default:false (Hashtbl.find_opt parity x))))
        e.elems)
    equations;
  Hashtbl.fold (fun _ odd acc -> acc && not odd) parity true
  && List.fold_left (fun acc e -> if e.rhs then not acc else acc) false equations

let check_odd_walk a b symbol walk colouring =
  let edge_in_a u v =
    match relation_of a symbol with
    | Some r when Relation.arity r = 2 ->
      Relation.mem r [| u; v |] || Relation.mem r [| v; u |]
    | _ -> false
  in
  let rec steps = function
    | u :: (v :: _ as rest) -> edge_in_a u v && steps rest
    | _ -> true
  in
  let rec last = function [ x ] -> Some x | _ :: rest -> last rest | [] -> None in
  match walk with
  | [] | [ _ ] -> false
  | first :: _ ->
    (List.length walk - 1) mod 2 = 1
    && last walk = Some first
    && steps walk
    && Array.length colouring = Structure.size b
    && Array.for_all (fun c -> c = 0 || c = 1) colouring
    && (match relation_of b symbol with
       | None -> true
       | Some r ->
         Relation.for_all
           (fun t' ->
             Array.length t' = 2 && colouring.(t'.(0)) <> colouring.(t'.(1)))
           r)

(* Forests over [0..n-1] via parent pointers: every chain must reach a root
   within [n] hops.  Returns nodes ordered children-before-parents. *)
let forest_order parent =
  let n = Array.length parent in
  let depth = Array.make n (-1) in
  let ok = ref true in
  let rec d steps e =
    if steps > n then (ok := false; 0)
    else if parent.(e) < -1 || parent.(e) >= n then (ok := false; 0)
    else if parent.(e) = -1 then 0
    else if depth.(parent.(e)) >= 0 then 1 + depth.(parent.(e))
    else 1 + d (steps + 1) parent.(e)
  in
  for e = 0 to n - 1 do
    if depth.(e) < 0 then depth.(e) <- d 0 e
  done;
  if not !ok then None
  else
    Some
      (List.sort
         (fun e f -> compare depth.(f) depth.(e))
         (List.init n Fun.id))

(* Candidate images of one fact in [B]. *)
let candidate_images b { symbol; fact } =
  match relation_of b symbol with
  | None -> []
  | Some r ->
    Relation.fold
      (fun t' acc ->
        if Array.length t' = Array.length fact && repeat_consistent fact t' then
          t' :: acc
        else acc)
      r []

let agree (te : Tuple.t) (tp : Tuple.t) (te' : Tuple.t) (tp' : Tuple.t) =
  let ok = ref true in
  Array.iteri
    (fun i x ->
      Array.iteri (fun j y -> if x = y && te'.(i) <> tp'.(j) then ok := false) tp)
    te;
  !ok

let check_semijoin_empty a b facts parent =
  let nf = Array.length facts in
  nf > 0
  && Array.length parent = nf
  && Array.for_all (in_source a) facts
  &&
  match forest_order parent with
  | None -> false
  | Some order ->
    let supports = Array.map (candidate_images b) facts in
    List.iter
      (fun e ->
        let p = parent.(e) in
        if p >= 0 then
          supports.(p) <-
            List.filter
              (fun tp' ->
                List.exists
                  (fun te' -> agree facts.(e).fact facts.(p).fact te' tp')
                  supports.(e))
              supports.(p))
      order;
    Array.exists (( = ) []) supports

let check_dp_empty a b bags parent =
  let n = Structure.size a and m = Structure.size b in
  let nodes = Array.length bags in
  nodes > 0
  && Array.length parent = nodes
  && Array.for_all (List.for_all (fun x -> 0 <= x && x < n)) bags
  &&
  match forest_order parent with
  | None -> false
  | Some order ->
    let bags = Array.map (List.sort_uniq Int.compare) bags in
    (* Facts of [A] entirely inside a bag constrain its assignments. *)
    let locals bag =
      List.rev
        (Structure.fold_tuples
           (fun name t acc ->
             if Array.for_all (fun x -> List.mem x bag) t then (name, t) :: acc
             else acc)
           a [])
    in
    let tables = Array.make nodes [] in
    let empty_found = ref false in
    List.iter
      (fun u ->
        if not !empty_found then begin
          let bag = Array.of_list bags.(u) in
          let d = Array.length bag in
          let facts_u = locals bags.(u) in
          let children =
            List.filter (fun c -> parent.(c) = u) (List.init nodes Fun.id)
          in
          let image = Array.make (max d 1) 0 in
          let value x =
            let rec find j = if bag.(j) = x then image.(j) else find (j + 1) in
            find 0
          in
          let rows = ref [] in
          let rec assign i =
            if i = d then begin
              let local_ok =
                List.for_all
                  (fun (name, t) ->
                    match relation_of b name with
                    | Some r -> Relation.mem r (Array.map value t)
                    | None -> false)
                  facts_u
              in
              let children_ok =
                local_ok
                && List.for_all
                     (fun c ->
                       let shared =
                         List.filter (fun x -> List.mem x bags.(u)) bags.(c)
                       in
                       List.exists
                         (fun row ->
                           List.for_all
                             (fun x -> List.assoc x row = value x)
                             shared)
                         tables.(c))
                     children
              in
              if children_ok then
                rows := List.map (fun x -> (x, value x)) bags.(u) :: !rows
            end
            else
              for v = 0 to m - 1 do
                image.(i) <- v;
                assign (i + 1)
              done
          in
          assign 0;
          tables.(u) <- !rows;
          if !rows = [] then empty_found := true
        end)
      order;
    !empty_found

let check_spoiler_win a b steps =
  let n = Structure.size a and m = Structure.size b in
  let distinct_domain cfg =
    let xs = List.map fst cfg in
    List.length (List.sort_uniq Int.compare xs) = List.length xs
  in
  let partial_hom cfg =
    List.for_all (fun (x, v) -> 0 <= x && x < n && 0 <= v && v < m) cfg
    && distinct_domain cfg
    && Structure.fold_tuples
         (fun name t ok ->
           ok
           &&
           if Array.for_all (fun x -> List.mem_assoc x cfg) t then
             match relation_of b name with
             | Some r -> Relation.mem r (Array.map (fun x -> List.assoc x cfg) t)
             | None -> false
           else true)
         a true
  in
  let subset c c' = List.for_all (fun p -> List.mem p c') c in
  let rec go earlier = function
    | [] -> false
    | (cfg, x) :: rest ->
      0 <= x && x < n
      && (not (List.mem_assoc x cfg))
      && distinct_domain cfg
      && (let dead = ref true in
          for v = 0 to m - 1 do
            if !dead then begin
              let ext = (x, v) :: cfg in
              if partial_hom ext && not (List.exists (fun d -> subset d ext) earlier)
              then dead := false
            end
          done;
          !dead)
      && (cfg = [] || go (cfg :: earlier) rest)
  in
  n > 0 && go [] steps

let check_search_tree a b tree =
  let n = Structure.size a and m = Structure.size b in
  let sigma = Array.make (max n 1) (-1) in
  let all_values vs =
    List.sort_uniq Int.compare vs = List.init m Fun.id
  in
  let rec go = function
    | Conflict origin ->
      in_source a origin
      && (match relation_of b origin.symbol with
         | None -> true
         | Some r ->
           let fact = origin.fact in
           Relation.for_all
             (fun t' ->
               Array.length t' <> Array.length fact
               || (not (repeat_consistent fact t'))
               || Array.exists
                    (fun i -> sigma.(fact.(i)) >= 0 && sigma.(fact.(i)) <> t'.(i))
                    (Array.init (Array.length fact) Fun.id))
             r)
    | Split { elem; children } ->
      0 <= elem && elem < n
      && sigma.(elem) = -1
      && all_values (List.map fst children)
      && List.for_all
           (fun (v, sub) ->
             sigma.(elem) <- v;
             let ok = go sub in
             sigma.(elem) <- -1;
             ok)
           children
  in
  n > 0 && go tree

(* Independent re-implementation of the Lemma 3.5 encoding, written from
   the statement of the lemma: element [x] of [A] becomes [bits] Boolean
   elements [x*bits .. x*bits+bits-1], a k-ary tuple becomes a
   [k*bits]-ary tuple, and each tuple of [B] is replaced by its bitwise
   decomposition.  Any homomorphism [h : A -> B] induces
   [h_b(x*bits + j) = j-th bit of h(x)], so refuting the encoded pair
   refutes the original one — for any [bits >= 1]. *)
let encode_vocab bits vocab =
  Vocabulary.create
    (List.map (fun (name, k) -> (name, k * bits)) (Vocabulary.symbols vocab))

let encode_source bits a =
  let base =
    Structure.create
      (encode_vocab bits (Structure.vocabulary a))
      ~size:(Structure.size a * bits)
  in
  Structure.fold_tuples
    (fun name t acc ->
      let k = Array.length t in
      let bt = Array.init (k * bits) (fun p -> (t.(p / bits) * bits) + (p mod bits)) in
      Structure.add_tuple acc name bt)
    a base

let encode_target bits b =
  let base = Structure.create (encode_vocab bits (Structure.vocabulary b)) ~size:2 in
  Structure.fold_tuples
    (fun name t acc ->
      let k = Array.length t in
      let bt = Array.init (k * bits) (fun p -> (t.(p / bits) lsr (p mod bits)) land 1) in
      Structure.add_tuple acc name bt)
    b base

let no_image = Search_tree (Split { elem = 0; children = [] })

let rec check a b cert =
  match cert with
  | Witness h -> check_witness a b h
  | Empty_relation origin -> check_empty_relation a b origin
  | Unit_refutation steps -> check_unit_refutation a b steps
  | Implication_cycle { pivot; forward; backward } ->
    check_implication_cycle a b pivot forward backward
  | Affine_contradiction eqs -> check_affine_contradiction a b eqs
  | Odd_walk { symbol; walk; colouring } -> check_odd_walk a b symbol walk colouring
  | Semijoin_empty { facts; parent } -> check_semijoin_empty a b facts parent
  | Dp_empty { bags; parent } -> check_dp_empty a b bags parent
  | Spoiler_win steps -> check_spoiler_win a b steps
  | Search_tree tree -> check_search_tree a b tree
  | Via_booleanization { bits; inner } ->
    1 <= bits && bits <= 30
    && (match (encode_source bits a, encode_target bits b) with
       | ab, bb -> check ab bb inner
       | exception Invalid_argument _ -> false)
  | Via_preprocess { source; target; inner } ->
    (* Replay each source shrink both ways.  Refutation soundness rests on
       [embed] alone: a homomorphism [h : a -> b] would compose with the
       chain of embeds into one from the shrunk source — and with the
       target fold into the shrunk target — contradicting [inner].  A
       declared [fold] (absent only for component restrictions, which have
       no enclosing-to-component homomorphism) is validated as the reverse
       homomorphism, certifying that the shrink preserved Sat as well. *)
    let rec thread cur = function
      | [] -> Some cur
      | st :: rest ->
        if
          check_witness st.shrunk cur st.embed
          && (match st.fold with
             | None -> true
             | Some f -> check_witness cur st.shrunk f)
        then thread st.shrunk rest
        else None
    in
    (match thread a source with
    | None -> false
    | Some a' ->
      let target_ok, b' =
        match target with
        | None -> (true, b)
        | Some st ->
          (* On the target side the fold [b -> b'] is the load-bearing
             direction, so here it is mandatory. *)
          ( (match st.fold with
            | None -> false
            | Some f -> check_witness b st.shrunk f)
            && check_witness st.shrunk b st.embed,
            st.shrunk )
      in
      target_ok && check a' b' inner)

let check a b cert = try check a b cert with _ -> false

let rec describe = function
  | Witness _ -> "witness"
  | Empty_relation _ -> "empty-relation"
  | Unit_refutation _ -> "unit-propagation"
  | Implication_cycle _ -> "implication-cycle"
  | Affine_contradiction _ -> "gf2-contradiction"
  | Odd_walk _ -> "odd-walk"
  | Semijoin_empty _ -> "semijoin-empty"
  | Dp_empty _ -> "dp-empty"
  | Spoiler_win _ -> "spoiler-win"
  | Search_tree _ -> "search-tree"
  | Via_booleanization { inner; _ } -> "booleanized(" ^ describe inner ^ ")"
  | Via_preprocess { inner; _ } -> "via-preprocess(" ^ describe inner ^ ")"

let rec tree_size = function
  | Conflict _ -> 1
  | Split { children; _ } ->
    List.fold_left (fun acc (_, sub) -> acc + tree_size sub) 1 children

let rec size = function
  | Witness h -> Array.length h
  | Empty_relation _ -> 1
  | Unit_refutation steps -> List.length steps
  | Implication_cycle { forward; backward; _ } ->
    1 + List.length forward + List.length backward
  | Affine_contradiction eqs -> List.length eqs
  | Odd_walk { walk; _ } -> List.length walk
  | Semijoin_empty { facts; _ } -> Array.length facts
  | Dp_empty { bags; _ } -> Array.length bags
  | Spoiler_win steps -> List.length steps
  | Search_tree tree -> tree_size tree
  | Via_booleanization { inner; _ } -> 1 + size inner
  | Via_preprocess { source; target; inner } ->
    let step_size st = 1 + Array.length st.embed in
    List.fold_left
      (fun acc st -> acc + step_size st)
      (size inner
      + match target with None -> 0 | Some st -> step_size st)
      source
