(* Split [items] into [n] chunks of near-equal length. *)
let split_chunks items n =
  let len = List.length items in
  let base = len / n and extra = len mod n in
  let rec take k xs acc =
    if k = 0 then (List.rev acc, xs)
    else
      match xs with
      | [] -> (List.rev acc, [])
      | x :: rest -> take (k - 1) rest (x :: acc)
  in
  let rec go i xs =
    if i >= n || xs = [] then []
    else
      let k = base + if i < extra then 1 else 0 in
      let chunk, rest = take k xs [] in
      if chunk = [] then go (i + 1) rest else chunk :: go (i + 1) rest
  in
  go 0 items

let complements chunks =
  List.mapi
    (fun i _ ->
      List.concat (List.filteri (fun j _ -> j <> i) chunks))
    chunks

let ddmin ~keeps items =
  if not (keeps items) then items
  else if keeps [] then []
  else
    let rec go items n =
      let len = List.length items in
      if len <= 1 then items
      else
        let chunks = split_chunks items n in
        match List.find_opt keeps chunks with
        | Some c -> go c 2
        | None -> (
          (* With n = 2 the complements are the chunks again; skip the
             duplicate probes. *)
          let comps = if n = 2 then [] else complements chunks in
          match List.find_opt keeps comps with
          | Some c -> go c (max (n - 1) 2)
          | None -> if n < len then go items (min len (2 * n)) else items)
    in
    go items 2

(* --- Structures ---------------------------------------------------- *)

module Structure = Relational.Structure

let rebuild vocab ~size tuples =
  let tbl = Hashtbl.create 16 in
  List.iter
    (fun (rel, t) ->
      Hashtbl.replace tbl rel (t :: (try Hashtbl.find tbl rel with Not_found -> [])))
    tuples;
  Structure.of_relations vocab ~size
    (List.map
       (fun (name, _) -> (name, List.rev (try Hashtbl.find tbl name with Not_found -> [])))
       (Relational.Vocabulary.symbols vocab))

let drop_tuples ~keeps s =
  let vocab = Structure.vocabulary s and size = Structure.size s in
  let wrap tuples =
    match rebuild vocab ~size tuples with
    | s' -> keeps s'
    | exception Invalid_argument _ -> false
  in
  rebuild vocab ~size (ddmin ~keeps:wrap (Structure.facts s))

(* Eliminate universe elements by merging each into a smaller one,
   largest first so renumbering is a plain shift.  First-improvement,
   iterated to a fixed point. *)
let merge_elements ~keeps s =
  let try_merge s e v =
    (* Map e onto v (v <> e) in a universe shrunk by one; elements above
       e shift down to stay contiguous. *)
    let idx x = if x < e then x else x - 1 in
    let n = Structure.size s in
    match
      Structure.map_universe s ~size:(n - 1) (fun x ->
          if x = e then idx v else idx x)
    with
    | s' -> if keeps s' then Some s' else None
    | exception Invalid_argument _ -> None
  in
  let rec pass s =
    let n = Structure.size s in
    let rec search e v =
      if e <= 0 then None
      else if v >= e then search (e - 1) 0
      else
        match try_merge s e v with
        | Some s' -> Some s'
        | None -> search e (v + 1)
    in
    if n <= 1 then s
    else match search (n - 1) 0 with Some s' -> pass s' | None -> s
  in
  pass s

let structure ~keeps s =
  if not (keeps s) then s
  else
    let s = drop_tuples ~keeps s in
    let s = merge_elements ~keeps s in
    drop_tuples ~keeps s

(* --- Queries ------------------------------------------------------- *)

module Query = Cq.Query

let drop_atoms ~keeps (q : Query.t) =
  let wrap body = keeps { q with Query.body } in
  { q with Query.body = ddmin ~keeps:wrap q.Query.body }

(* Collapse existential variables into other variables of the query
   (head variables are legal merge targets, but never merge sources, so
   the head is preserved verbatim). *)
let collapse_variables ~keeps (q : Query.t) =
  let try_collapse q x y =
    let q' = Query.rename_variables (fun v -> if v = x then y else v) q in
    if keeps q' then Some q' else None
  in
  let rec pass q =
    let exts = Query.existential_variables q in
    let all = Query.variables q in
    let rec search = function
      | [] -> None
      | x :: rest ->
        let rec targets = function
          | [] -> search rest
          | y :: more ->
            if y = x then targets more
            else (
              match try_collapse q x y with
              | Some q' -> Some q'
              | None -> targets more)
        in
        targets all
    in
    match search exts with Some q' -> pass q' | None -> q
  in
  pass q

let query ~keeps q =
  if not (keeps q) then q
  else
    let q = drop_atoms ~keeps q in
    let q = collapse_variables ~keeps q in
    drop_atoms ~keeps q
