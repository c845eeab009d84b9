open Relational

type table = { vars : string array; rows : Tuple.t list }

let dedupe rows = List.sort_uniq Tuple.compare rows

(* All assignments over [vars] for a universe of size [n]. *)
let full_table vars n =
  let d = Array.length vars in
  let rows = ref [] in
  let row = Array.make (max d 1) 0 in
  let rec fill i =
    if i = d then rows := Array.sub row 0 d :: !rows
    else
      for v = 0 to n - 1 do
        row.(i) <- v;
        fill (i + 1)
      done
  in
  fill 0;
  { vars; rows = dedupe !rows }

(* Natural join of two tables on their shared columns. *)
let join t1 t2 =
  let shared =
    Array.to_list t1.vars
    |> List.filter_map (fun v ->
           let i = ref (-1) in
           Array.iteri (fun j w -> if w = v && !i < 0 then i := j) t2.vars;
           if !i >= 0 then
             let j = ref 0 in
             Array.iteri (fun k w -> if w = v then j := k) t1.vars;
             Some (!j, !i)
           else None)
  in
  let extra =
    Array.to_list t2.vars
    |> List.mapi (fun i v -> (i, v))
    |> List.filter (fun (_, v) -> not (Array.exists (( = ) v) t1.vars))
  in
  let vars = Array.append t1.vars (Array.of_list (List.map snd extra)) in
  let index = Hashtbl.create (List.length t2.rows) in
  List.iter
    (fun row ->
      let key = Array.of_list (List.map (fun (_, i) -> row.(i)) shared) in
      Hashtbl.add index key row)
    t2.rows;
  let rows =
    List.concat_map
      (fun row1 ->
        let key = Array.of_list (List.map (fun (j, _) -> row1.(j)) shared) in
        List.map
          (fun row2 ->
            Array.append row1 (Array.of_list (List.map (fun (i, _) -> row2.(i)) extra)))
          (Hashtbl.find_all index key))
      t1.rows
  in
  { vars; rows = dedupe rows }

(* Extend a table with extra columns ranging over the whole universe. *)
let expand t extra_vars n =
  List.fold_left
    (fun t v ->
      if Array.exists (( = ) v) t.vars then t
      else
        let rows =
          List.concat_map
            (fun row -> List.init n (fun e -> Array.append row [| e |]))
            t.rows
        in
        { vars = Array.append t.vars [| v |]; rows })
    t extra_vars

(* Reorder/restrict columns to [vars] (which must all be present). *)
let project t vars =
  let positions =
    Array.map
      (fun v ->
        let i = ref (-1) in
        Array.iteri (fun j w -> if w = v && !i < 0 then i := j) t.vars;
        assert (!i >= 0);
        !i)
      vars
  in
  { vars; rows = dedupe (List.map (fun row -> Array.map (fun i -> row.(i)) positions) t.rows) }

let rec eval structure f =
  let n = Structure.size structure in
  match (f : Formula.t) with
  | Formula.True -> { vars = [||]; rows = [ [||] ] }
  | Formula.False -> { vars = [||]; rows = [] }
  | Formula.Equal (x, y) ->
    if x = y then full_table [| x |] n
    else { vars = [| x; y |]; rows = List.init n (fun e -> [| e; e |]) }
  | Formula.Atom (r, args) ->
    let rel =
      match Structure.relation structure r with
      | rel -> rel
      | exception Not_found -> Relation.empty (Array.length args)
    in
    let vars = Array.of_list (Formula.free_variables f) in
    let rows =
      Relation.fold
        (fun t acc ->
          (* Repeated variables must agree. *)
          let assignment = Hashtbl.create 4 in
          let ok = ref true in
          Array.iteri
            (fun i v ->
              match Hashtbl.find_opt assignment v with
              | Some e -> if e <> t.(i) then ok := false
              | None -> Hashtbl.replace assignment v t.(i))
            args;
          if !ok then Array.map (Hashtbl.find assignment) vars :: acc else acc)
        rel []
    in
    { vars; rows = dedupe rows }
  | Formula.Not g ->
    let tg = eval structure g in
    let everything = full_table tg.vars n in
    let present = Hashtbl.create (List.length tg.rows) in
    List.iter (fun row -> Hashtbl.replace present row ()) tg.rows;
    { tg with rows = List.filter (fun row -> not (Hashtbl.mem present row)) everything.rows }
  | Formula.And gs ->
    List.fold_left
      (fun acc g -> join acc (eval structure g))
      { vars = [||]; rows = [ [||] ] }
      gs
  | Formula.Or gs ->
    let vars = Array.of_list (Formula.free_variables f) in
    let tables =
      List.map
        (fun g ->
          let t = expand (eval structure g) (Array.to_list vars) n in
          project t vars)
        gs
    in
    { vars; rows = dedupe (List.concat_map (fun t -> t.rows) tables) }
  | Formula.Exists (x, g) ->
    let tg = eval structure g in
    if not (Array.exists (( = ) x) tg.vars) then
      (* x is not free below: the quantifier only asserts the universe is
         nonempty. *)
      (if n > 0 then tg else { tg with rows = [] })
    else
      let keep =
        Array.of_list (List.filter (fun v -> v <> x) (Array.to_list tg.vars))
      in
      project tg keep
  | Formula.Forall (x, g) -> eval structure (Formula.Not (Exists (x, Formula.Not g)))

let holds structure f =
  if not (Formula.is_sentence f) then
    invalid_arg "Fo_eval.holds: formula has free variables";
  (eval structure f).rows <> []
