open Relational

let is_constant name = name <> "" && name.[0] >= 'a' && name.[0] <= 'z'

let constants q = List.filter is_constant (Query.variables q)

let has_constants q = constants q <> []

(* Reserved marker predicate (the "__dist" prefix keeps it unparseable in
   user queries). *)
let marker c = "__distconst_" ^ c

let with_markers (db, index) =
  let consts = List.filter (fun (v, _) -> is_constant v) index in
  let vocab =
    List.fold_left
      (fun acc (v, _) -> Vocabulary.add acc (marker v) 1)
      (Structure.vocabulary db) consts
  in
  let base = Structure.create vocab ~size:(Structure.size db) in
  let copied =
    Structure.fold_tuples (fun name t acc -> Structure.add_tuple acc name t) db base
  in
  List.fold_left
    (fun acc (v, i) -> Structure.add_tuple acc (marker v) [| i |])
    copied consts

let contained q1 q2 =
  if Query.arity q1 <> Query.arity q2 then
    invalid_arg "Constants.contained: queries have different head arities";
  let d1 = with_markers (Canonical.database q1) in
  let d2 = with_markers (Canonical.database q2) in
  Homomorphism.exists d2 d1

let equivalent q1 q2 = contained q1 q2 && contained q2 q1

(* Mark the database side: each bound constant's element carries the
   constant's marker, so homomorphisms pin constants to their bindings. *)
let mark_database q ~binding db =
  let consts = constants q in
  let vocab =
    List.fold_left
      (fun acc c -> Vocabulary.add acc (marker c) 1)
      (Structure.vocabulary db) consts
  in
  let base = Structure.create vocab ~size:(Structure.size db) in
  let copied =
    Structure.fold_tuples (fun name t acc -> Structure.add_tuple acc name t) db base
  in
  List.fold_left
    (fun acc c ->
      match List.assoc_opt c binding with
      | None -> invalid_arg ("Constants.evaluate: unbound constant " ^ c)
      | Some e ->
        if e < 0 || e >= Structure.size db then
          invalid_arg ("Constants.evaluate: constant bound outside the universe: " ^ c)
        else Structure.add_tuple acc (marker c) [| e |])
    copied consts

let evaluate q ~binding db =
  let body, index = Canonical.database_no_head q in
  let marked_body = with_markers (body, index) in
  let marked_db = mark_database q ~binding db in
  let head_elements = Array.map (fun v -> List.assoc v index) q.Query.head in
  Homomorphism.search_seq marked_body marked_db
  |> Seq.map (fun h -> Array.map (fun e -> h.(e)) head_elements)
  |> List.of_seq
  |> List.sort_uniq Tuple.compare
