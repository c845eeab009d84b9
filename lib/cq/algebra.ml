open Relational

type expr =
  | Relation of string * string array
  | Select of string * string * expr
  | Project of string list * expr
  | Join of expr * expr
  | Rename of (string * string) list * expr

type table = { columns : string array; rows : Tuple.t list }

let column_position t name =
  let found = ref (-1) in
  Array.iteri (fun i c -> if c = name && !found < 0 then found := i) t.columns;
  if !found < 0 then invalid_arg ("Algebra: unknown column " ^ name) else !found

let dedupe rows = List.sort_uniq Tuple.compare rows

let rec eval db expr =
  match expr with
  | Relation (name, cols) -> (
    match Structure.relation db name with
    | rel ->
      if Relation.arity rel <> Array.length cols then
        invalid_arg ("Algebra: arity mismatch scanning " ^ name);
      { columns = Array.copy cols; rows = Relation.elements rel }
    | exception Not_found ->
      (* Unknown relations read as empty, matching query evaluation. *)
      { columns = Array.copy cols; rows = [] })
  | Select (c1, c2, e) ->
    let t = eval db e in
    let i = column_position t c1 and j = column_position t c2 in
    { t with rows = List.filter (fun row -> row.(i) = row.(j)) t.rows }
  | Project (cols, e) ->
    let t = eval db e in
    let positions = List.map (column_position t) cols in
    {
      columns = Array.of_list cols;
      rows =
        dedupe
          (List.map
             (fun row -> Array.of_list (List.map (fun i -> row.(i)) positions))
             t.rows);
    }
  | Rename (pairs, e) ->
    let t = eval db e in
    let renamed =
      Array.map
        (fun c -> match List.assoc_opt c pairs with Some c' -> c' | None -> c)
        t.columns
    in
    let seen = Hashtbl.create 8 in
    Array.iter
      (fun c ->
        if Hashtbl.mem seen c then invalid_arg ("Algebra: rename collision on " ^ c);
        Hashtbl.add seen c ())
      renamed;
    { t with columns = renamed }
  | Join (e1, e2) ->
    let t1 = eval db e1 and t2 = eval db e2 in
    let shared =
      Array.to_list t1.columns
      |> List.filter (fun c -> Array.exists (( = ) c) t2.columns)
    in
    let pos1 = List.map (column_position t1) shared in
    let pos2 = List.map (column_position t2) shared in
    let extra =
      Array.to_list t2.columns
      |> List.mapi (fun i c -> (i, c))
      |> List.filter (fun (_, c) -> not (Array.exists (( = ) c) t1.columns))
    in
    let index = Hashtbl.create (List.length t2.rows) in
    List.iter
      (fun row ->
        let key = Array.of_list (List.map (fun i -> row.(i)) pos2) in
        Hashtbl.add index key row)
      t2.rows;
    let rows =
      List.concat_map
        (fun row1 ->
          let key = Array.of_list (List.map (fun i -> row1.(i)) pos1) in
          List.map
            (fun row2 ->
              Array.append row1
                (Array.of_list (List.map (fun (i, _) -> row2.(i)) extra)))
            (Hashtbl.find_all index key))
        t1.rows
    in
    {
      columns = Array.append t1.columns (Array.of_list (List.map snd extra));
      rows = dedupe rows;
    }

let plan_of_query q =
  if not (Query.is_safe q) then
    invalid_arg "Algebra.plan_of_query: unsafe query (head variable not in body)";
  let atom_plan i (a : Query.atom) =
    let fresh = Array.mapi (fun p _ -> Printf.sprintf "c%d_%d" i p) a.Query.args in
    let base = Relation (a.Query.pred, fresh) in
    (* Select for repeated variables inside the atom. *)
    let selected =
      snd
        (Array.fold_left
           (fun (p, acc) v ->
             let first = ref (-1) in
             Array.iteri (fun j w -> if w = v && !first < 0 then first := j) a.Query.args;
             if !first < p then (p + 1, Select (fresh.(!first), fresh.(p), acc))
             else (p + 1, acc))
           (0, base) a.Query.args)
    in
    (* Keep the first occurrence of each variable, named by the variable. *)
    let firsts =
      List.filteri
        (fun p _ ->
          let v = a.Query.args.(p) in
          let first = ref (-1) in
          Array.iteri (fun j w -> if w = v && !first < 0 then first := j) a.Query.args;
          !first = p)
        (Array.to_list fresh)
    in
    let vars_of_firsts =
      List.filter_map
        (fun c ->
          let p = ref (-1) in
          Array.iteri (fun j f -> if f = c then p := j) fresh;
          Some (c, a.Query.args.(!p)))
        firsts
    in
    Rename (vars_of_firsts, Project (firsts, selected))
  in
  let joined =
    match List.mapi atom_plan q.Query.body with
    | [] -> invalid_arg "Algebra.plan_of_query: empty body"
    | first :: rest -> List.fold_left (fun acc p -> Join (acc, p)) first rest
  in
  Project (Array.to_list q.Query.head, joined)

let evaluate_query q db =
  let t = eval db (plan_of_query q) in
  List.sort_uniq Tuple.compare t.rows
