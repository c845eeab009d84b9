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

let closure_test r = function
  | Zero_valid -> Boolean_relation.mem r 0
  | One_valid -> Boolean_relation.mem r ((1 lsl Boolean_relation.arity r) - 1)
  | Horn -> Boolean_relation.closed_under2 r Boolean_relation.tuple_and
  | Dual_horn -> Boolean_relation.closed_under2 r Boolean_relation.tuple_or
  | Bijunctive -> Boolean_relation.closed_under3 r Boolean_relation.tuple_majority
  | Affine -> Boolean_relation.closed_under3 r Boolean_relation.tuple_xor3

(* The closure tests are quadratic (Horn, dual Horn) or cubic (bijunctive,
   affine) in the relation's cardinality, and repeated solves against the
   same target re-run them on identical relations; memoize the class list
   per relation value.  The key [(arity, masks)] describes the Boolean
   relation canonically (masks are sorted).  The table is bounded: at
   capacity it is reset wholesale rather than evicted entry by entry,
   which keeps lookups O(1) without an LRU structure. *)
let cache_capacity = 4096

let class_cache : (int * int list, schaefer_class list) Hashtbl.t =
  Hashtbl.create 256

(* The table is process-global and the serve daemon classifies templates
   from concurrent request threads; all table access runs under this
   lock.  The closure tests themselves run outside it — concurrent misses
   on the same key just both compute and the second insert wins. *)
let class_cache_lock = Mutex.create ()

let relation_classes r =
  let key = (Boolean_relation.arity r, Boolean_relation.masks r) in
  let cached =
    Mutex.lock class_cache_lock;
    let found = Hashtbl.find_opt class_cache key in
    Mutex.unlock class_cache_lock;
    found
  in
  match cached with
  | Some classes ->
    Telemetry.count "schaefer.class_cache_hits" 1;
    classes
  | None ->
    Telemetry.count "schaefer.class_cache_misses" 1;
    let classes = List.filter (closure_test r) all_classes in
    Mutex.lock class_cache_lock;
    if Hashtbl.length class_cache >= cache_capacity then
      Hashtbl.reset class_cache;
    Hashtbl.replace class_cache key classes;
    Mutex.unlock class_cache_lock;
    classes

let relation_in_class r c = List.mem c (relation_classes r)

let is_boolean_structure b = Structure.size b = 2

let boolean_relations b =
  if not (is_boolean_structure b) then
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
