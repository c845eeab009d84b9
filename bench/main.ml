(* Benchmark harness: `dune exec bench/main.exe` regenerates every
   experiment table (E1-E10, one per claim in EXPERIMENTS.md) and then runs
   the Bechamel micro-benchmark suite (one Test.make per experiment).

   `dune exec bench/main.exe -- e3 e7` runs a subset;
   `dune exec bench/main.exe -- tables` / `-- micro` selects one half. *)

open Bechamel
open Toolkit

(* One representative micro-benchmark per experiment. *)
let micro_tests =
  let open Relational in
  let box = Experiments.box_relation ~arity:14 ~free:6 in
  let downset = Experiments.downset_relation ~arity:12 ~bits:6 in
  let horn_target = Experiments.boolean_target "R" Experiments.horn_only_relation in
  let horn_source =
    Testkit.Workloads.random_structure ~seed:11
      (Structure.vocabulary horn_target) ~size:100 ~tuples:400
  in
  let c4 = Testkit.Workloads.directed_cycle 4 in
  let c64 = Testkit.Workloads.undirected_cycle 64 in
  let c16 = Testkit.Workloads.undirected_cycle 16 in
  let q1 =
    Testkit.Workloads.random_two_atom_query ~seed:5 ~predicates:16 ~arity:2 ~variables:24
  in
  let q2 =
    Testkit.Workloads.random_query ~seed:6
      ~predicates:(List.init 16 (fun i -> (Printf.sprintf "P%d" i, 2)))
      ~variables:4 ~atoms:6
  in
  let rho3 = Datalog.Rho.build Testkit.Workloads.k2 ~k:3 in
  let ktree = Testkit.Workloads.random_partial_ktree ~seed:3 ~n:30 ~k:2 ~keep:0.9 in
  let k3 = Testkit.Workloads.clique 3 in
  let k5 = Testkit.Workloads.clique 5 and k4 = Testkit.Workloads.clique 4 in
  Test.make_grouped ~name:"experiments"
    [
      Test.make ~name:"e1-classify-box" (Staged.stage (fun () ->
          Schaefer.Classify.relation_classes box));
      Test.make ~name:"e2-horn-formula" (Staged.stage (fun () ->
          Schaefer.Define.horn_formula downset));
      Test.make ~name:"e3-formula-route" (Staged.stage (fun () ->
          Schaefer.Uniform.solve horn_source horn_target));
      Test.make ~name:"e3-direct-route" (Staged.stage (fun () ->
          Oracle.Schaefer_direct.solve horn_source horn_target));
      Test.make ~name:"e4-booleanize-c4" (Staged.stage (fun () ->
          Schaefer.Booleanize.solve (Testkit.Workloads.directed_cycle 32) c4));
      Test.make ~name:"e5-two-atom-containment" (Staged.stage (fun () ->
          Cq.Containment.contained_two_atom q1 q2));
      Test.make ~name:"e6-2color-c64" (Staged.stage (fun () ->
          Schaefer.Booleanize.solve c64 Testkit.Workloads.k2));
      Test.make ~name:"e7-pebble-k2-c16" (Staged.stage (fun () ->
          Pebble.Game.duplicator_wins ~k:2 c16 Testkit.Workloads.k2));
      Test.make ~name:"e8-rho-k3-c8" (Staged.stage (fun () ->
          Datalog.Eval.goal_holds rho3 (Testkit.Workloads.undirected_cycle 8)));
      Test.make ~name:"e9-treewidth-dp" (Staged.stage (fun () ->
          Treewidth.Td_solver.exists ktree k3));
      Test.make ~name:"e10-mac-k5-k4" (Staged.stage (fun () ->
          Homomorphism.exists k5 k4));
    ]

let run_micro () =
  Util.header "Bechamel micro-benchmarks (one per experiment)";
  let ols =
    Analyze.ols ~bootstrap:0 ~r_square:true ~predictors:[| Measure.run |]
  in
  let instances = Instance.[ monotonic_clock ] in
  let cfg =
    Benchmark.cfg ~limit:2000 ~quota:(Time.second 0.5) ~stabilize:true ()
  in
  let raw = Benchmark.all cfg instances micro_tests in
  let results = Analyze.all ols Instance.monotonic_clock raw in
  let rows =
    Hashtbl.fold
      (fun name ols acc ->
        let estimate =
          match Analyze.OLS.estimates ols with
          | Some (t :: _) -> t
          | _ -> nan
        in
        let r2 =
          match Analyze.OLS.r_square ols with Some r -> r | None -> nan
        in
        (name, estimate, r2) :: acc)
      results []
  in
  Util.table
    ~columns:[ "benchmark"; "time/run"; "r^2" ]
    (List.map
       (fun (name, t, r2) ->
         [ name; Util.seconds_string (t /. 1e9); Printf.sprintf "%.4f" r2 ])
       (List.sort compare rows))

let () =
  let args = List.tl (Array.to_list Sys.argv) in
  let wanted_tables, wanted_micro =
    match args with
    | [] -> (List.map fst Experiments.all, true)
    | [ "tables" ] -> (List.map fst Experiments.all, false)
    | [ "micro" ] -> ([], true)
    | names -> (List.filter (fun n -> List.mem n names) (List.map fst Experiments.all),
                List.mem "micro" names)
  in
  Format.printf
    "Conjunctive-Query Containment and Constraint Satisfaction - benchmark harness@.";
  Format.printf "(Kolaitis & Vardi, PODS 1998 reproduction; see EXPERIMENTS.md)@.";
  List.iter
    (fun name -> (List.assoc name Experiments.all) ())
    wanted_tables;
  if wanted_micro then run_micro ();
  Format.printf "@.All experiments completed; all embedded correctness assertions held.@."
