(* A tour of Schaefer's dichotomy (Section 3).

   Classify Boolean targets, build their defining formulas, solve instances
   through each tractable route, and watch the one NP-complete target
   (positive 1-in-3 SAT) resist every polynomial route.

   Run with:  dune exec examples/sat_families.exe *)

open Relational
open Schaefer

let show_relation name r =
  Format.printf "%-14s %a@.  classes: %s@." name Boolean_relation.pp r
    (match Classify.relation_classes r with
    | [] -> "(none - NP-complete side of the dichotomy)"
    | cs -> String.concat ", " (List.map Classify.class_name cs))

let show_formula r cls =
  match Define.defining r cls with
  | Define.Clausal f -> Format.printf "  %s formula: %a@." (Classify.class_name cls) Cnf.pp f
  | Define.Linear s -> Format.printf "  %s system: %a@." (Classify.class_name cls) Gf2.pp s

let () =
  Format.printf "== Classifying Boolean relations (Theorem 3.1) ==@.@.";
  let implies = Boolean_relation.create 2 [ 0b00; 0b10; 0b11 ] in
  let xor = Boolean_relation.create 2 [ 0b01; 0b10 ] in
  let one_in_three = Boolean_relation.create 3 [ 0b001; 0b010; 0b100 ] in
  let nand = Boolean_relation.create 2 [ 0b00; 0b01; 0b10 ] in
  show_relation "implies(x,y)" implies;
  show_relation "xor(x,y)" xor;
  show_relation "nand(x,y)" nand;
  show_relation "1-in-3(x,y,z)" one_in_three;

  Format.printf "@.== Defining formulas (Theorem 3.2) ==@.@.";
  Format.printf "implies:@.";
  show_formula implies Classify.Horn;
  show_formula implies Classify.Bijunctive;
  Format.printf "xor:@.";
  show_formula xor Classify.Affine;
  show_formula xor Classify.Bijunctive;

  Format.printf "@.== Uniform solving (Theorem 3.3) ==@.@.";
  let solve_one cls seed =
    let b = Testkit.Workloads.random_schaefer_target ~seed cls ~arities:[ 2; 3 ] in
    let a =
      Testkit.Workloads.random_structure ~seed:(seed * 17) (Structure.vocabulary b)
        ~size:8 ~tuples:7
    in
    let answer =
      match Uniform.solve a b with
      | Uniform.Hom _ -> "sat"
      | Uniform.No_hom cert -> "unsat, refuted by " ^ Certificate.describe cert
      | Uniform.Not_applicable why -> "n/a: " ^ why
    in
    Format.printf "%-11s target: %s@." (Classify.class_name cls) answer
  in
  List.iteri
    (fun i cls -> solve_one cls (i + 1))
    [ Classify.Zero_valid; Classify.One_valid; Classify.Horn; Classify.Dual_horn;
      Classify.Bijunctive; Classify.Affine ];

  Format.printf "@.== The NP-complete side ==@.@.";
  let b = Testkit.Workloads.one_in_three_target in
  let a =
    Testkit.Workloads.random_structure ~seed:99 (Structure.vocabulary b) ~size:6 ~tuples:5
  in
  (match Uniform.solve a b with
  | Uniform.Not_applicable why -> Format.printf "uniform route refuses: %s@." why
  | _ -> assert false);
  let r = Core.Solver.solve a b in
  Format.printf "unified solver falls back to: %s (answer: %s)@."
    (Core.Solver.route_name r.Core.Solver.route)
    (match Core.Solver.answer r with Some _ -> "sat" | None -> "unsat");

  Format.printf "@.== Booleanization in action (Lemma 3.5 / Example 3.7) ==@.@.";
  let k2 = Testkit.Workloads.k2 in
  let even = Testkit.Workloads.undirected_cycle 10 in
  let odd = Testkit.Workloads.undirected_cycle 9 in
  let describe name g =
    match Booleanize.solve g k2 with
    | Booleanize.Hom _ -> Format.printf "%s 2-colorable: yes@." name
    | Booleanize.No_hom _ -> Format.printf "%s 2-colorable: no@." name
    | Booleanize.Not_schaefer _ -> assert false
  in
  describe "C10" even;
  describe "C9 " odd;
  Format.printf "@.Done.@."
