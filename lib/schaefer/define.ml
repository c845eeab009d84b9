type t =
  | Clausal of Cnf.t
  | Linear of Gf2.system

let require relation cls =
  if not (Classify.relation_in_class relation cls) then
    invalid_arg
      (Printf.sprintf "Define: relation is not %s" (Classify.class_name cls))

(* Horn construction.  Since R is AND-closed, its one-sets form a closure
   system whose closed sets are exactly {One(t) | t in R}.  The formula
   consists of:
   - unit clauses for the ones of the minimum model (AND of all tuples);
   - for every closed set C and every j outside C, with X = C + j:
     either a negative clause excluding X (no model contains X), or
     implications X -> j' for every j' forced by X.
   Every clause is valid on R, and a standard maximal-closed-subset argument
   shows every non-model violates one of them. *)
let horn_formula relation =
  require relation Classify.Horn;
  let k = Boolean_relation.arity relation in
  let masks = Boolean_relation.masks relation in
  match masks with
  | [] -> Cnf.make ~nvars:(max k 1) [ [] ]
  | first :: rest ->
    let minimum = List.fold_left ( land ) first rest in
    let closure x =
      let above = List.filter (fun t -> t land x = x) masks in
      match above with
      | [] -> None
      | t :: ts -> Some (List.fold_left ( land ) t ts)
    in
    let neg_clause x = List.map Cnf.neg (Boolean_relation.ones k x) in
    let clauses = Hashtbl.create 64 in
    let emit c =
      let key = List.sort compare (List.map (fun l -> (l.Cnf.var, l.Cnf.sign)) c) in
      if not (Hashtbl.mem clauses key) then Hashtbl.add clauses key c
    in
    List.iter (fun j -> emit [ Cnf.pos j ]) (Boolean_relation.ones k minimum);
    List.iter
      (fun c ->
        for j = 0 to k - 1 do
          if (c lsr j) land 1 = 0 then begin
            let x = c lor (1 lsl j) in
            match closure x with
            | None -> emit (neg_clause x)
            | Some y ->
              List.iter
                (fun j' -> emit (neg_clause x @ [ Cnf.pos j' ]))
                (Boolean_relation.ones k (y land lnot x))
          end
        done)
      masks;
    Cnf.make ~nvars:k (Hashtbl.fold (fun _ c acc -> c :: acc) clauses [])

let dual_horn_formula relation =
  require relation Classify.Dual_horn;
  Cnf.flip_signs (horn_formula (Boolean_relation.complement_tuples relation))

let bijunctive_formula relation =
  require relation Classify.Bijunctive;
  let k = Boolean_relation.arity relation in
  let masks = Boolean_relation.masks relation in
  let satisfied clause =
    List.for_all
      (fun m ->
        List.exists
          (fun l -> (m lsr l.Cnf.var) land 1 = if l.Cnf.sign then 1 else 0)
          clause)
      masks
  in
  let clauses = ref [] in
  let consider c = if satisfied c then clauses := c :: !clauses in
  if k = 0 then begin
    if masks = [] then clauses := [ [] ]
  end
  else begin
    for i = 0 to k - 1 do
      consider [ Cnf.pos i ];
      consider [ Cnf.neg i ];
      for j = i + 1 to k - 1 do
        consider [ Cnf.pos i; Cnf.pos j ];
        consider [ Cnf.pos i; Cnf.neg j ];
        consider [ Cnf.neg i; Cnf.pos j ];
        consider [ Cnf.neg i; Cnf.neg j ]
      done
    done
  end;
  Cnf.make ~nvars:(max k 1) !clauses

let affine_system relation =
  require relation Classify.Affine;
  let k = Boolean_relation.arity relation in
  let rows =
    List.map
      (fun m -> Array.init (k + 1) (fun i -> if i = k then true else (m lsr i) land 1 = 1))
      (Boolean_relation.masks relation)
  in
  let basis = Gf2.nullspace_basis ~ncols:(k + 1) rows in
  let equations =
    List.map
      (fun v -> { Gf2.coeffs = Array.sub v 0 k; rhs = v.(k) })
      basis
  in
  Gf2.make_system ~nvars:k equations

let defining relation = function
  | Classify.Horn -> Clausal (horn_formula relation)
  | Classify.Dual_horn -> Clausal (dual_horn_formula relation)
  | Classify.Bijunctive -> Clausal (bijunctive_formula relation)
  | Classify.Affine -> Linear (affine_system relation)
  | (Classify.Zero_valid | Classify.One_valid) as cls ->
    invalid_arg
      (Printf.sprintf "Define.defining: trivial class %s needs no formula"
         (Classify.class_name cls))
