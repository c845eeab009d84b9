open Relational

let check_arities q1 q2 =
  if Query.arity q1 <> Query.arity q2 then
    invalid_arg "Containment: queries have different head arities"

let canonical_pair q1 q2 =
  let d1, index1 = Canonical.database q1 in
  let d2, index2 = Canonical.database q2 in
  ((d1, index1), (d2, index2))

let witness_names q1 q2 h =
  let _, index1 = Canonical.database q1 and _, index2 = Canonical.database q2 in
  let name_of_element1 e = fst (List.find (fun (_, i) -> i = e) index1) in
  List.map (fun (v, i) -> (v, name_of_element1 h.(i))) index2

let containment_witness q1 q2 =
  check_arities q1 q2;
  let (d1, _), (d2, _) = canonical_pair q1 q2 in
  Option.map (witness_names q1 q2) (Homomorphism.find d2 d1)

let contained q1 q2 =
  check_arities q1 q2;
  let (d1, _), (d2, _) = canonical_pair q1 q2 in
  Homomorphism.exists d2 d1

let equivalent q1 q2 = contained q1 q2 && contained q2 q1

let evaluate q db =
  let body, index = Canonical.database_no_head q in
  let head_elements = Array.map (fun v -> List.assoc v index) q.Query.head in
  Homomorphism.search_seq body db
  |> Seq.map (fun h -> Array.map (fun e -> h.(e)) head_elements)
  |> List.of_seq
  |> List.sort_uniq Tuple.compare

let contained_via_evaluation q1 q2 =
  check_arities q1 q2;
  let frozen, index1 = Canonical.database_no_head q1 in
  let target = Array.map (fun v -> List.assoc v index1) q1.Query.head in
  List.exists (fun t -> Tuple.equal t target) (evaluate q2 frozen)

let minimize q =
  let db, index = Canonical.database q in
  let { Preprocess.structure = core; fold = retraction; _ } =
    Preprocess.target_core ~core_nodes:max_int db
  in
  (* Name each core element after one of its preimage variables, preferring
     head variables (which the retraction fixes). *)
  let representative = Array.make (Structure.size core) None in
  let record v e =
    match representative.(retraction.(e)) with
    | Some _ -> ()
    | None -> representative.(retraction.(e)) <- Some v
  in
  Array.iter (fun v -> record v (List.assoc v index)) q.Query.head;
  List.iter (fun (v, e) -> record v e) index;
  let names i =
    match representative.(i) with
    | Some v -> v
    | None -> Printf.sprintf "v%d" i
  in
  Canonical.to_query ~head_pred:q.Query.head_pred ~arity:(Query.arity q) ~names core

let contained_two_atom q1 q2 =
  check_arities q1 q2;
  if not (Query.is_two_atom q1) then
    invalid_arg "Containment.contained_two_atom: q1 is not a two-atom query";
  let (d1, _), (d2, _) = canonical_pair q1 q2 in
  (* D_{Q1} has at most two tuples per relation, so its Booleanization is
     bijunctive and the Schaefer machinery applies. *)
  match Schaefer.Booleanize.solve d2 d1 with
  | Schaefer.Booleanize.Hom _ -> true
  | Schaefer.Booleanize.No_hom _ -> false
  | Schaefer.Booleanize.Not_schaefer _ ->
    invalid_arg
      "Containment.contained_two_atom: Booleanized target unexpectedly not Schaefer"
