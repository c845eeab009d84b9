open Relational

type outcome =
  | Hom of Homomorphism.mapping
  | No_hom of Certificate.t
  | Not_applicable of string

let target_relation b name arity =
  match Structure.relation b name with
  | r -> Boolean_relation.of_relation r
  | exception Not_found -> Boolean_relation.create arity []

(* Symbols of A's vocabulary that carry at least one fact, with their
   arities. *)
let used_symbols a =
  List.filter
    (fun (name, _) -> not (Relation.is_empty (Structure.relation a name)))
    (Vocabulary.symbols (Structure.vocabulary a))

(* [Array.of_list] copies a long list of young values by first forcing a
   minor collection; filling an array made with an old [dummy] does
   not. *)
let array_of_list dummy l =
  let arr = Array.make (List.length l) dummy in
  List.iteri (fun i x -> arr.(i) <- x) l;
  arr

let no_origin = { Certificate.symbol = ""; fact = [||] }

let no_equation = { Gf2.coeffs = [||]; rhs = false }

let compare_lit (l : Certificate.lit) (l' : Certificate.lit) =
  match Int.compare l.elem l'.elem with 0 -> Bool.compare l.sign l'.sign | c -> c

let build_formula ?(budget = Budget.unlimited) a b cls =
  let n = Structure.size a in
  (* Clauses or equations, latest first, and the fact each one
     instantiates. *)
  let clausal = ref [] and linear = ref [] and origins = ref [] in
  List.iter
    (fun (name, arity) ->
      let def = Define.defining (target_relation b name arity) cls in
      Relation.iter
        (fun t ->
          Budget.tick budget;
          let origin = { Certificate.symbol = name; fact = t } in
          match def with
          | Define.Clausal f ->
            List.iter
              (fun c ->
                origins := origin :: !origins;
                let c = List.map (fun (l : Cnf.literal) -> { l with var = t.(l.var) }) c in
                clausal := c :: !clausal)
              f.Cnf.clauses
          | Define.Linear s ->
            List.iter
              (fun e ->
                let coeffs = Array.make n false in
                Array.iteri
                  (fun p c -> if c then coeffs.(t.(p)) <- not coeffs.(t.(p)))
                  e.Gf2.coeffs;
                origins := origin :: !origins;
                linear := { Gf2.coeffs; rhs = e.Gf2.rhs } :: !linear)
              s.Gf2.equations)
        (Structure.relation a name))
    (used_symbols a);
  let origins = array_of_list no_origin (List.rev !origins) in
  match cls with
  | Classify.Affine ->
    (Define.Linear (Gf2.make_system ~nvars:n (List.rev !linear)), origins)
  | Classify.Horn | Classify.Dual_horn | Classify.Bijunctive ->
    (Define.Clausal (Cnf.make ~nvars:n (List.rev !clausal)), origins)
  | Classify.Zero_valid | Classify.One_valid ->
    invalid_arg "Uniform.build_formula: trivial class"

let mapping_of_assignment assignment =
  Array.map (fun v -> if v then 1 else 0) assignment

let arity_mismatch a b =
  List.exists
    (fun (name, arity) ->
      Vocabulary.mem (Structure.vocabulary b) name
      && Vocabulary.arity (Structure.vocabulary b) name <> arity)
    (Vocabulary.symbols (Structure.vocabulary a))

let empty_relation_refutation a b =
  let no_image (name, arity) =
    match Structure.relation b name with
    | r -> Relation.is_empty r || Relation.arity r <> arity
    | exception Not_found -> true
  in
  (* Settle the common case on the vocabulary; scan the facts only for
     the first one over a blocked symbol. *)
  match List.filter no_image (Vocabulary.symbols (Structure.vocabulary a)) with
  | [] -> None
  | blocked ->
    Structure.fold_tuples
      (fun name t acc ->
        match acc with
        | None when List.mem_assoc name blocked ->
          Some (Certificate.Empty_relation { Certificate.symbol = name; fact = t })
        | _ -> acc)
      a None

(* Theorem 3.3: run the class's algorithm on [phi_A].  A refutation comes
   back with its clauses or equations mapped to the facts of [A] they
   instantiate. *)
let formula_route ~budget a b cls =
  let decided = function
    | Ok m -> Hom (mapping_of_assignment m)
    | Error cert -> No_hom cert
  in
  let lit (l : Cnf.literal) = { Certificate.elem = l.var; sign = l.sign } in
  match build_formula ~budget a b cls with
  | Define.Clausal f, origins -> (
    (* Only a refutation reads clauses by index. *)
    let clauses = lazy (array_of_list [] f.Cnf.clauses) in
    let iclause k =
      {
        Certificate.clause_of = origins.(k);
        lits = List.sort_uniq compare_lit (List.map lit (Lazy.force clauses).(k));
      }
    in
    (* Every step but the last forces the clause's one literal of sign
       [sign]; the last clause is falsified. *)
    let unit_refutation sign steps =
      let last = List.length steps - 1 in
      Certificate.Unit_refutation
        (List.mapi
           (fun i k ->
             let clause = iclause k in
             let forces =
               if i = last then None
               else List.find_opt (fun l -> l.Certificate.sign = sign) clause.lits
             in
             { Certificate.clause; forces })
           steps)
    in
    let chain = List.map (fun (k, l) -> (iclause k, lit l)) in
    decided
      (match cls with
      | Classify.Horn -> Result.map_error (unit_refutation true) (Horn_sat.solve f)
      | Classify.Dual_horn ->
        Result.map_error (unit_refutation false) (Horn_sat.solve_dual f)
      | _ ->
        Result.map_error
          (fun (r : Two_sat.refutation) ->
            Certificate.Implication_cycle
              {
                pivot = lit r.pivot;
                forward = chain r.forward;
                backward = chain r.backward;
              })
          (Two_sat.solve f)))
  | Define.Linear s, origins ->
    let equations = lazy (array_of_list no_equation s.Gf2.equations) in
    let iequation i =
      let e = (Lazy.force equations).(i) in
      {
        Certificate.equation_of = origins.(i);
        elems = Gf2.support e.Gf2.coeffs;
        rhs = e.Gf2.rhs;
      }
    in
    decided
      (Result.map_error
         (fun combo -> Certificate.Affine_contradiction (List.map iequation combo))
         (Gf2.solve ~budget s))

let solve ?(budget = Budget.unlimited) a b =
  Budget.check budget;
  if Structure.size b <> 2 then Not_applicable "target is not Boolean"
  else if arity_mismatch a b then Not_applicable "vocabulary arity mismatch"
  else
    match empty_relation_refutation a b with
    | Some cert -> No_hom cert
    | None -> (
      match Classify.classify b with
      | None -> Not_applicable "target is not a Schaefer structure"
      | Some Classify.Zero_valid -> Hom (Array.make (Structure.size a) 0)
      | Some Classify.One_valid -> Hom (Array.make (Structure.size a) 1)
      | Some cls -> formula_route ~budget a b cls)
