type literal = { var : int; sign : bool }

type clause = literal list

type t = { nvars : int; clauses : clause list }

let pos var = { var; sign = true }

let neg var = { var; sign = false }

let negate l = { l with sign = not l.sign }

let make ~nvars clauses =
  List.iter
    (List.iter (fun l ->
         if l.var < 0 || l.var >= nvars then
           invalid_arg "Cnf.make: variable out of range"))
    clauses;
  { nvars; clauses }

let size f = List.fold_left (fun acc c -> acc + List.length c) 0 f.clauses

let count_sign sign c = List.length (List.filter (fun l -> l.sign = sign) c)

let is_horn f = List.for_all (fun c -> count_sign true c <= 1) f.clauses

let is_dual_horn f = List.for_all (fun c -> count_sign false c <= 1) f.clauses

let is_two_cnf f = List.for_all (fun c -> List.length c <= 2) f.clauses

let flip_signs f = { f with clauses = List.map (List.map negate) f.clauses }

let pp_literal ppf l =
  Format.fprintf ppf "%sp%d" (if l.sign then "" else "~") l.var

let pp ppf f =
  if f.clauses = [] then Format.pp_print_string ppf "true"
  else
    Format.pp_print_list
      ~pp_sep:(fun ppf () -> Format.fprintf ppf " & ")
      (fun ppf c ->
        Format.fprintf ppf "(%a)"
          (Format.pp_print_list
             ~pp_sep:(fun ppf () -> Format.fprintf ppf " | ")
             pp_literal)
          c)
      ppf f.clauses
