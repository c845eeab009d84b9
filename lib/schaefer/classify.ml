open Relational

type schaefer_class =
  | Zero_valid
  | One_valid
  | Horn
  | Dual_horn
  | Bijunctive
  | Affine

let all_classes = [ Zero_valid; One_valid; Horn; Dual_horn; Bijunctive; Affine ]

let class_name = function
  | Zero_valid -> "0-valid"
  | One_valid -> "1-valid"
  | Horn -> "Horn"
  | Dual_horn -> "dual Horn"
  | Bijunctive -> "bijunctive"
  | Affine -> "affine"

(* Each test is quadratic (Horn, dual Horn) or cubic (bijunctive, affine)
   in the relation's cardinality and reads nothing but the relation, so a
   template's classes are a function of the template alone (Theorem 3.1):
   nothing is kept between calls. *)
let relation_in_class r = function
  | Zero_valid -> Boolean_relation.mem r 0
  | One_valid -> Boolean_relation.mem r ((1 lsl Boolean_relation.arity r) - 1)
  | Horn -> Boolean_relation.closed_under2 r Boolean_relation.tuple_and
  | Dual_horn -> Boolean_relation.closed_under2 r Boolean_relation.tuple_or
  | Bijunctive -> Boolean_relation.closed_under3 r Boolean_relation.tuple_majority
  | Affine -> Boolean_relation.closed_under3 r Boolean_relation.tuple_xor3

let relation_classes r = List.filter (relation_in_class r) all_classes

let boolean_relations b =
  if Structure.size b <> 2 then
    invalid_arg "Classify: structure is not Boolean (universe size <> 2)";
  List.map
    (fun (name, _) -> (name, Boolean_relation.of_relation (Structure.relation b name)))
    (Vocabulary.symbols (Structure.vocabulary b))

let structure_classes b =
  let rels = boolean_relations b in
  List.filter (fun c -> List.for_all (fun (_, r) -> relation_in_class r c) rels) all_classes

let classify b =
  let classes = structure_classes b in
  let preference = [ Zero_valid; One_valid; Bijunctive; Horn; Dual_horn; Affine ] in
  List.find_opt (fun c -> List.mem c classes) preference
