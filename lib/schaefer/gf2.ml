type equation = { coeffs : bool array; rhs : bool }

type system = { nvars : int; equations : equation list }

let make_system ~nvars equations =
  List.iter
    (fun e ->
      if Array.length e.coeffs <> nvars then
        invalid_arg "Gf2.make_system: coefficient length mismatch")
    equations;
  { nvars; equations }

let support coeffs =
  let cols = ref [] in
  for c = Array.length coeffs - 1 downto 0 do
    if coeffs.(c) then cols := c :: !cols
  done;
  !cols

(* Sparse elimination keyed by pivot.  A row is its ascending list of
   nonzero columns, its right-hand side, and the ascending indices of the
   input rows it sums.  Every stored row's pivot is its least column, so
   each reduction step strictly raises the reduced row's least column:
   reduction terminates, and an input row that reduces to [0 = 1] proves
   the system inconsistent.  The budget is ticked once per step. *)
type row = { cols : int list; rhs : bool; combo : int list }

let rec sym_diff (xs : int list) ys =
  match (xs, ys) with
  | [], l | l, [] -> l
  | x :: xs', y :: ys' ->
    if x < y then x :: sym_diff xs' ys
    else if y < x then y :: sym_diff xs ys'
    else sym_diff xs' ys'

let eliminate ?(budget = Relational.Budget.unlimited) rows =
  let pivots = Hashtbl.create 64 in
  let rec reduce r =
    Relational.Budget.tick budget;
    match r.cols with
    | [] -> if r.rhs then Some r.combo else None
    | m :: _ -> (
      match Hashtbl.find_opt pivots m with
      | Some p ->
        reduce
          {
            cols = sym_diff r.cols p.cols;
            rhs = r.rhs <> p.rhs;
            combo = sym_diff r.combo p.combo;
          }
      | None ->
        Hashtbl.add pivots m r;
        None)
  in
  let rec go i = function
    | [] -> Ok pivots
    | (coeffs, rhs) :: rest -> (
      match reduce { cols = support coeffs; rhs; combo = [ i ] } with
      | Some combo -> Error combo
      | None -> go (i + 1) rest)
  in
  go 0 rows

(* Set the pivot columns of [x] (all still 0) from the pivot rows, highest
   pivot first: every other column of a row lies above its pivot, so it is
   already final.  Non-pivot columns keep their value in [x]. *)
let back_substitute pivots x =
  let order =
    List.sort (Fun.flip Int.compare) (Hashtbl.fold (fun m _ acc -> m :: acc) pivots [])
  in
  List.iter
    (fun m ->
      let r = Hashtbl.find pivots m in
      x.(m) <- List.fold_left (fun acc c -> acc <> x.(c)) r.rhs r.cols)
    order;
  x

let solve ?budget s =
  Result.map
    (fun pivots -> back_substitute pivots (Array.make s.nvars false))
    (eliminate ?budget (List.map (fun e -> (e.coeffs, e.rhs)) s.equations))

let pivots_of rows =
  match eliminate (List.map (fun r -> (r, false)) rows) with
  | Ok pivots -> pivots
  | Error _ -> assert false (* homogeneous rows never reduce to 0 = 1 *)

let rank rows = Hashtbl.length (pivots_of rows)

let nullspace_basis ~ncols rows =
  let pivots = pivots_of rows in
  List.filter_map
    (fun f ->
      if Hashtbl.mem pivots f then None
      else begin
        let v = Array.make ncols false in
        v.(f) <- true;
        Some (back_substitute pivots v)
      end)
    (List.init ncols Fun.id)

let pp ppf s =
  if s.equations = [] then Format.pp_print_string ppf "true"
  else
    Format.pp_print_list
      ~pp_sep:(fun ppf () -> Format.fprintf ppf " & ")
      (fun ppf e ->
        let vars =
          List.filteri (fun i _ -> e.coeffs.(i)) (List.init s.nvars Fun.id)
        in
        if vars = [] then Format.fprintf ppf "0 = %d" (if e.rhs then 1 else 0)
        else
          Format.fprintf ppf "%a = %d"
            (Format.pp_print_list
               ~pp_sep:(fun ppf () -> Format.fprintf ppf " + ")
               (fun ppf v -> Format.fprintf ppf "p%d" v))
            vars
            (if e.rhs then 1 else 0))
      ppf s.equations
