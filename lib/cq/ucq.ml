open Relational

type t = { arity : int; disjuncts : Query.t list }

let make = function
  | [] -> invalid_arg "Ucq.make: empty union"
  | first :: _ as disjuncts ->
    let arity = Query.arity first in
    List.iter
      (fun q ->
        if Query.arity q <> arity then invalid_arg "Ucq.make: head arities differ")
      disjuncts;
    { arity; disjuncts }

let disjunct_count u = List.length u.disjuncts

let evaluate u db =
  List.sort_uniq Tuple.compare
    (List.concat_map (fun q -> Containment.evaluate q db) u.disjuncts)

let contained_query q u =
  List.exists (fun q' -> Containment.contained q q') u.disjuncts

let contained u1 u2 = List.for_all (fun q -> contained_query q u2) u1.disjuncts

let equivalent u1 u2 = contained u1 u2 && contained u2 u1

let minimize u =
  (* Keep a disjunct only if it is not contained in a different kept one;
     process in order, comparing against all others. *)
  let rec sieve kept = function
    | [] -> List.rev kept
    | q :: rest ->
      let redundant =
        List.exists (fun q' -> Containment.contained q q') rest
        || List.exists (fun q' -> Containment.contained q q') kept
      in
      if redundant then sieve kept rest else sieve (q :: kept) rest
  in
  make (List.map Containment.minimize (sieve [] u.disjuncts))
