open Relational

type stats = { width : int; tables : int }

let decompose a =
  let g = Graph.of_edges ~size:(Structure.size a) (Structure.gaifman_edges a) in
  Elimination.decomposition g

let solve_with_decomposition_stats ?budget td a b =
  Option.iter Budget.check budget;
  if not (Tree_decomposition.validate_structure a td) then
    invalid_arg "Td_solver: invalid tree decomposition for the source structure";
  let h, tables = Join_eval.solve (Join_eval.of_decomposition ?budget td a b) in
  (h, { width = Tree_decomposition.width td; tables })

let solve_with_decomposition ?budget td a b =
  fst (solve_with_decomposition_stats ?budget td a b)

let solve ?budget a b = solve_with_decomposition ?budget (decompose a) a b

let exists a b = solve a b <> None

let solve_with_stats ?budget a b = solve_with_decomposition_stats ?budget (decompose a) a b

let count ?budget a b =
  Option.iter Budget.check budget;
  Join_eval.count (Join_eval.of_decomposition ?budget (decompose a) a b)
