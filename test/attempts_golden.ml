(* Sequential attempt report: one line per solve over the selfcheck
   instances, with and without preprocessing, under three budgets.  The
   runtest rule diffs it against cli/attempts_threads1.expected, so any
   change to the route order, guards, budget slicing, node accounting or
   engine counters of the threads = 1 dispatcher shows up here. *)

open Core

let budgets = [ ("unlimited", None); ("max_nodes 50", Some 50); ("max_nodes 2000", Some 2000) ]

let counters cs =
  String.concat "," (List.map (fun (name, n) -> Printf.sprintf "%s=%d" name n) cs)

let attempt (at : Solver.attempt) =
  Printf.sprintf "%s:%s:%d:[%s]" (Solver.route_name at.route)
    (Solver.outcome_name at.outcome) at.nodes (counters at.counters)

let () =
  for seed = 0 to 199 do
    let a, b = Selfcheck.instance seed in
    List.iter
      (fun preprocess ->
        List.iter
          (fun (label, max_nodes) ->
            Preprocess.memo_reset ();
            let budget =
              match max_nodes with
              | None -> Budget.unlimited
              | Some n -> Budget.create ~max_nodes:n ()
            in
            let r = Solver.solve ~budget ~threads:1 ~preprocess a b in
            Printf.printf "seed %d preprocess=%b %s | %s | %s | %s\n" seed preprocess
              label
              (Solver.verdict_name r.verdict)
              (Solver.route_name r.route)
              (String.concat " " (List.map attempt r.attempts)))
          budgets)
      [ true; false ]
  done
