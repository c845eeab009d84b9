open Relational

type stats = { rounds : int; derived : int }

(* A rule compiled once per fixpoint: variable names are numbered into
   dense slots up front, so the join loop works on int arrays instead of
   [List.assoc] lookups, and each body atom carries its argument-position
   slot array ready for index probes. *)
type compiled_atom = { pred : string; arity : int; positions : int array }

type compiled_rule = {
  head_pred : string;
  head_positions : int array;
  body : compiled_atom array;
  nvars : int;
}

let compile_rule (r : Program.rule) =
  let vars = Program.rule_variables r in
  let slots = Hashtbl.create 16 in
  List.iteri (fun i v -> Hashtbl.replace slots v i) vars;
  let var v = Hashtbl.find slots v in
  {
    head_pred = r.Program.head.pred;
    head_positions = Array.map var r.Program.head.args;
    body =
      Array.of_list
        (List.map
           (fun (a : Program.atom) ->
             {
               pred = a.Program.pred;
               arity = Array.length a.Program.args;
               positions = Array.map var a.Program.args;
             })
           r.Program.body);
    nvars = List.length vars;
  }

(* Evaluate one compiled rule against the given fact lookup.  [delta]
   optionally designates one body-atom index whose relation is replaced,
   to implement semi-naive evaluation.  Returns the derived head tuples. *)
let eval_rule ~universe ~facts ?delta cr =
  Telemetry.count "datalog.rule_firings" 1;
  let subst = Array.make (max 1 cr.nvars) (-1) in
  let out = ref [] in
  let head_positions = cr.head_positions in
  (* Emit head instances, ranging unbound head variables over the universe
     consistently (the same variable gets the same value). *)
  let rec emit_from i =
    if i >= Array.length head_positions then
      out := Array.map (fun v -> subst.(v)) head_positions :: !out
    else if subst.(head_positions.(i)) >= 0 then emit_from (i + 1)
    else begin
      let v = head_positions.(i) in
      for e = 0 to universe - 1 do
        subst.(v) <- e;
        emit_from (i + 1)
      done;
      subst.(v) <- -1
    end
  in
  let natoms = Array.length cr.body in
  let rec join i =
    if i >= natoms then emit_from 0
    else begin
      let a = cr.body.(i) in
      let rel =
        match delta with Some (j, d) when j = i -> d | _ -> facts a.pred a.arity
      in
      let positions = a.positions in
      (* Bound-prefix probe: when some argument position is already bound,
         pull only the matching tuples through the relation's hash index
         instead of scanning the whole relation. *)
      let probe = ref (-1) in
      (try
         Array.iteri
           (fun p v ->
             if subst.(v) >= 0 then begin
               probe := p;
               raise Exit
             end)
           positions
       with Exit -> ());
      let candidates =
        if !probe >= 0 then begin
          Telemetry.count "datalog.index_probes" 1;
          Relation.matching rel ~pos:!probe ~value:subst.(positions.(!probe))
        end
        else begin
          Telemetry.count "datalog.relation_scans" 1;
          Relation.tuples_array rel
        end
      in
      Array.iter
        (fun t ->
          let bound = ref [] in
          let ok = ref true in
          Array.iteri
            (fun p v ->
              if !ok then
                if subst.(v) < 0 then begin
                  subst.(v) <- t.(p);
                  bound := v :: !bound
                end
                else if subst.(v) <> t.(p) then ok := false)
            positions;
          if !ok then join (i + 1);
          List.iter (fun v -> subst.(v) <- -1) !bound)
        candidates
    end
  in
  join 0;
  !out

let fixpoint_with_stats p structure =
  let universe = Structure.size structure in
  let idbs = Program.idb_predicates p in
  let tables = Hashtbl.create 16 in
  List.iter
    (fun name -> Hashtbl.replace tables name (Relation.empty (Program.predicate_arity p name)))
    idbs;
  let facts name arity =
    match Hashtbl.find_opt tables name with
    | Some r -> r
    | None -> (
      match Structure.relation structure name with
      | r -> r
      | exception Not_found -> Relation.empty arity)
  in
  let derived = ref 0 in
  let add name tuples =
    let r = Hashtbl.find tables name in
    let r' =
      List.fold_left
        (fun acc t -> if Relation.mem acc t then acc else (incr derived; Relation.add acc t))
        r tuples
    in
    let fresh = Relation.diff r' r in
    Hashtbl.replace tables name r';
    fresh
  in
  let rounds = ref 0 in
  let rules = List.map compile_rule p.Program.rules in
  (* Round 0: full evaluation (IDB tables are empty, so only rules without
     IDB body atoms can fire). *)
  incr rounds;
  let deltas = Hashtbl.create 16 in
  List.iter
    (fun name -> Hashtbl.replace deltas name (Relation.empty (Program.predicate_arity p name)))
    idbs;
  List.iter
    (fun cr ->
      let fresh = add cr.head_pred (eval_rule ~universe ~facts cr) in
      Hashtbl.replace deltas cr.head_pred
        (Relation.union (Hashtbl.find deltas cr.head_pred) fresh))
    rules;
  let any_delta () =
    Hashtbl.fold (fun _ d acc -> acc || not (Relation.is_empty d)) deltas false
  in
  while any_delta () do
    incr rounds;
    let new_deltas = Hashtbl.create 16 in
    List.iter
      (fun name ->
        Hashtbl.replace new_deltas name
          (Relation.empty (Program.predicate_arity p name)))
      idbs;
    List.iter
      (fun cr ->
        Array.iteri
          (fun i a ->
            if List.mem a.pred idbs then begin
              let d = Hashtbl.find deltas a.pred in
              if not (Relation.is_empty d) then begin
                let fresh =
                  add cr.head_pred (eval_rule ~universe ~facts ~delta:(i, d) cr)
                in
                Hashtbl.replace new_deltas cr.head_pred
                  (Relation.union (Hashtbl.find new_deltas cr.head_pred) fresh)
              end
            end)
          cr.body)
      rules;
    Hashtbl.reset deltas;
    Hashtbl.iter (fun name d -> Hashtbl.replace deltas name d) new_deltas
  done;
  Telemetry.count "datalog.rounds" !rounds;
  Telemetry.count "datalog.derived" !derived;
  ( List.map (fun name -> (name, Hashtbl.find tables name)) idbs,
    { rounds = !rounds; derived = !derived } )

let fixpoint p structure = fst (fixpoint_with_stats p structure)

let goal_relation p structure = List.assoc p.Program.goal (fixpoint p structure)

let goal_holds p structure = not (Relation.is_empty (goal_relation p structure))
