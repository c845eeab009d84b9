(* Quickstart: conjunctive-query containment via homomorphisms.

   Run with:  dune exec examples/quickstart.exe *)

open Relational

let section title = Format.printf "@.== %s ==@." title

let () =
  section "Parsing conjunctive queries";
  let q1 = Cq.Parser.parse "Q(X) :- E(X, Y), E(Y, Z), E(Z, W)." in
  let q2 = Cq.Parser.parse "Q(X) :- E(X, Y), E(Y, Z)." in
  Format.printf "Q1: %a@.Q2: %a@." Cq.Query.pp q1 Cq.Query.pp q2;

  section "Chandra-Merlin containment";
  Format.printf "Q1 <= Q2? %b (a 3-step walker also walks 2 steps)@."
    (Cq.Containment.contained q1 q2);
  Format.printf "Q2 <= Q1? %b@." (Cq.Containment.contained q2 q1);
  (match Cq.Containment.containment_witness q1 q2 with
  | Some witness ->
    Format.printf "witness homomorphism (vars of Q2 -> vars of Q1): %a@."
      (Format.pp_print_list
         ~pp_sep:(fun ppf () -> Format.fprintf ppf ", ")
         (fun ppf (v, w) -> Format.fprintf ppf "%s->%s" v w))
      witness
  | None -> assert false);

  section "Containment = homomorphism between canonical databases";
  let d1, _ = Cq.Canonical.database q1 in
  let d2, _ = Cq.Canonical.database q2 in
  Format.printf "canonical database of Q1:@.%a@." Structure.pp d1;
  Format.printf "hom(D_Q2 -> D_Q1) exists? %b@." (Homomorphism.exists d2 d1);

  section "The same machinery solves CSPs: 2-colorability";
  let even = Testkit.Workloads.undirected_cycle 8 in
  let odd = Testkit.Workloads.undirected_cycle 7 in
  let k2 = Testkit.Workloads.k2 in
  Format.printf "C8 -> K2 (2-colorable)? %b@." (Homomorphism.exists even k2);
  Format.printf "C7 -> K2 (2-colorable)? %b@." (Homomorphism.exists odd k2);

  section "Paper Example 3.8: CSP(C4) via Booleanization";
  let c4 = Testkit.Workloads.directed_cycle 4 in
  let c8 = Testkit.Workloads.directed_cycle 8 in
  let c6 = Testkit.Workloads.directed_cycle 6 in
  let bb = Schaefer.Booleanize.encode_target c4 in
  Format.printf "Booleanized C4 classes: %s@."
    (String.concat ", "
       (List.map Schaefer.Classify.class_name (Schaefer.Classify.structure_classes bb)));
  let report name a =
    match Schaefer.Booleanize.solve a c4 with
    | Schaefer.Booleanize.Hom h ->
      Format.printf "%s -> C4: yes, e.g. %a@." name Tuple.pp h
    | Schaefer.Booleanize.No_hom _ -> Format.printf "%s -> C4: no@." name
    | Schaefer.Booleanize.Not_schaefer _ -> Format.printf "%s -> C4: not Schaefer?!@." name
  in
  report "C8" c8;
  report "C6" c6;

  section "The unified solver picks a tractable route";
  let print_route a b =
    let r = Core.Solver.solve a b in
    Format.printf "route %-28s answer %b@." (Core.Solver.route_name r.Core.Solver.route)
      (Core.Solver.answer r <> None)
  in
  print_route c8 c4;
  print_route (Testkit.Workloads.path 10) (Testkit.Workloads.clique 3);
  print_route (Testkit.Workloads.undirected_cycle 9) (Testkit.Workloads.clique 3);
  Format.printf "@.Done.@."
