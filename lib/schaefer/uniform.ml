open Relational

type outcome =
  | Hom of Homomorphism.mapping
  | No_hom
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

(* Answers settled by the vocabularies alone, before [B]'s class matters.
   Booleanization keeps symbols, arities up to a common factor and
   nullary facts, so these read the same on an encoded pair. *)
let precheck a b =
  if
    not
      (List.for_all
         (fun (name, arity) ->
           (not (Vocabulary.mem (Structure.vocabulary b) name))
           || Vocabulary.arity (Structure.vocabulary b) name = arity)
         (Vocabulary.symbols (Structure.vocabulary a)))
  then Some (Not_applicable "vocabulary arity mismatch")
  else if
    (* Classify can not see a symbol A uses but B lacks, nor a nullary
       fact of A missing from B; either kills every homomorphism. *)
    List.exists
      (fun (name, _) -> not (Vocabulary.mem (Structure.vocabulary b) name))
      (used_symbols a)
    || not (Homomorphism.nullary_facts_hold a b)
  then Some No_hom
  else None

(* Classify [B] and run [route] on a nontrivial class; [Error] is a
   route's refutation. *)
let solve_with ?(budget = Budget.unlimited) ~route a b =
  Budget.check budget;
  if Structure.size b <> 2 then Ok (Not_applicable "target is not Boolean")
  else
    match precheck a b with
    | Some outcome -> Ok outcome
    | None -> (
      match Classify.classify b with
      | None -> Ok (Not_applicable "target is not a Schaefer structure")
      | Some Classify.Zero_valid -> Ok (Hom (Array.make (Structure.size a) 0))
      | Some Classify.One_valid -> Ok (Hom (Array.make (Structure.size a) 1))
      | Some cls -> route cls)

let empty_relation_refutation a b =
  Structure.fold_tuples
    (fun name t acc ->
      match acc with
      | Some _ -> acc
      | None ->
        let no_image =
          match Structure.relation b name with
          | r ->
            Relation.is_empty r
            || Relation.for_all (fun t' -> Array.length t' <> Array.length t) r
          | exception Not_found -> true
        in
        if no_image then
          Some (Certificate.Empty_relation { Certificate.symbol = name; fact = t })
        else None)
    a None

(* Theorem 3.3: run the class's algorithm on [phi_A].  A refutation comes
   back as [Error], its clauses or equations mapped to the facts of [A]
   they instantiate. *)
let formula_route ?budget a b cls =
  let decided = Result.map (fun m -> Hom (mapping_of_assignment m)) in
  let lit (l : Cnf.literal) = { Certificate.elem = l.var; sign = l.sign } in
  match build_formula ?budget a b cls with
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
         (Gf2.solve ?budget s))

let solve ?budget a b =
  Result.value ~default:No_hom
    (solve_with ?budget a b ~route:(fun cls -> formula_route ?budget a b cls))

let refute ?budget a b =
  match empty_relation_refutation a b with
  | Some c -> Some c
  | None -> (
    match solve_with ?budget a b ~route:(fun cls -> formula_route ?budget a b cls) with
    | Error c -> Some c
    | Ok _ -> None)

(* ------------------------------------------------------------------ *)
(* Direct algorithms (Theorem 3.4).                                    *)
(* ------------------------------------------------------------------ *)

let occurrences a =
  let occ = Array.make (max (Structure.size a) 1) [] in
  Structure.iter_tuples
    (fun name t ->
      List.iter (fun x -> occ.(x) <- (name, t) :: occ.(x)) (Tuple.elements t))
    a;
  occ

let target_masks a b =
  let table = Hashtbl.create 16 in
  List.iter
    (fun (name, arity) ->
      Hashtbl.replace table name
        (Boolean_relation.masks (target_relation b name arity)))
    (Vocabulary.symbols (Structure.vocabulary a));
  table

let solve_horn_direct ?(budget = Budget.unlimited) a b =
  let n = Structure.size a in
  let one = Array.make (max n 1) false in
  let occ = occurrences a in
  let masks = target_masks a b in
  let queue = Queue.create () in
  let set x =
    if not one.(x) then begin
      one.(x) <- true;
      Telemetry.count "schaefer.unit_propagations" 1;
      Queue.add x queue
    end
  in
  let ones_mask (t : Tuple.t) =
    let m = ref 0 in
    Array.iteri (fun i x -> if one.(x) then m := !m lor (1 lsl i)) t;
    !m
  in
  let process (name, (t : Tuple.t)) =
    Budget.tick budget;
    let ts = Hashtbl.find masks name in
    let x = ones_mask t in
    Array.iteri
      (fun j el ->
        if not one.(el) then
          let forced =
            List.for_all
              (fun t' -> t' land x <> x || (t' lsr j) land 1 = 1)
              ts
          in
          if forced then set el)
      t
  in
  Structure.iter_tuples (fun name t -> process (name, t)) a;
  while not (Queue.is_empty queue) do
    let x = Queue.pop queue in
    List.iter process occ.(x)
  done;
  let feasible = ref true in
  Structure.iter_tuples
    (fun name t ->
      if !feasible then begin
        let ts = Hashtbl.find masks name in
        let x = ones_mask t in
        if not (List.exists (fun t' -> t' land x = x) ts) then feasible := false
      end)
    a;
  if !feasible then Some (Array.init n (fun x -> if one.(x) then 1 else 0)) else None

let flip_boolean b = Structure.map_universe b ~size:2 (fun v -> 1 - v)

let solve_dual_horn_direct ?budget a b =
  match solve_horn_direct ?budget a (flip_boolean b) with
  | None -> None
  | Some h -> Some (Array.map (fun v -> 1 - v) h)

let solve_bijunctive_direct ?(budget = Budget.unlimited) a b =
  let n = Structure.size a in
  let value = Array.make (max n 1) (-1) in
  let occ = occurrences a in
  let index_of =
    let table = Hashtbl.create 16 in
    List.iter
      (fun (name, arity) ->
        (* A symbol of A's vocabulary with no relation in B acts as the
           empty relation of the declared arity: any fact over it is
           unsatisfiable, which propagation reports as a conflict. *)
        let r =
          match Structure.relation b name with
          | r -> r
          | exception Not_found -> Relation.empty arity
        in
        Hashtbl.replace table name (Relation.index r))
      (Vocabulary.symbols (Structure.vocabulary a));
    table
  in
  let trail = Stack.create () in
  let queue = Queue.create () in
  let conflict = ref false in
  let set x v =
    if value.(x) = -1 then begin
      value.(x) <- v;
      Telemetry.count "schaefer.unit_propagations" 1;
      Stack.push x trail;
      Queue.add x queue
    end
    else if value.(x) <> v then conflict := true
  in
  let propagate_element x =
    Budget.tick budget;
    let v = value.(x) in
    List.iter
      (fun (name, (t : Tuple.t)) ->
        if not !conflict then begin
          let ix = Hashtbl.find index_of name in
          let arity = Array.length t in
          for k = 0 to arity - 1 do
            if (not !conflict) && t.(k) = x then begin
              (* Indexed lookup of the tuples compatible with the fixed
                 value instead of filtering the whole relation. *)
              let matching = Relation.Index.matching ix ~pos:k ~value:v in
              if Array.length matching = 0 then conflict := true
              else
                for l = 0 to arity - 1 do
                  if not !conflict then begin
                    let first = matching.(0).(l) in
                    if
                      Array.for_all (fun (t' : Tuple.t) -> t'.(l) = first) matching
                    then set t.(l) first
                  end
                done
            end
          done
        end)
      occ.(x)
  in
  let propagate_from x v =
    conflict := false;
    Queue.clear queue;
    set x v;
    while (not !conflict) && not (Queue.is_empty queue) do
      propagate_element (Queue.pop queue)
    done;
    not !conflict
  in
  let undo_phase () =
    while not (Stack.is_empty trail) do
      value.(Stack.pop trail) <- -1
    done
  in
  let rec phases x =
    if x >= n then Some (Array.sub value 0 n)
    else if value.(x) >= 0 then phases (x + 1)
    else if propagate_from x 0 then begin
      Stack.clear trail;
      phases (x + 1)
    end
    else begin
      undo_phase ();
      if propagate_from x 1 then begin
        Stack.clear trail;
        phases (x + 1)
      end
      else None
    end
  in
  match phases 0 with
  | None -> None
  | Some h ->
    if Homomorphism.is_homomorphism a b h then Some h
    else
      invalid_arg
        "Uniform.solve_bijunctive_direct: propagation produced a non-homomorphism \
         (is the target really bijunctive?)"

let solve_direct ?budget a b =
  Result.value ~default:No_hom
    (solve_with ?budget a b ~route:(fun cls ->
         let lift = function Some h -> Ok (Hom h) | None -> Ok No_hom in
         match cls with
         | Classify.Horn -> lift (solve_horn_direct ?budget a b)
         | Classify.Dual_horn -> lift (solve_dual_horn_direct ?budget a b)
         | Classify.Bijunctive -> lift (solve_bijunctive_direct ?budget a b)
         | Classify.Affine -> formula_route ?budget a b Classify.Affine
         | Classify.Zero_valid | Classify.One_valid -> assert false))
