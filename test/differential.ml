(* Differential-oracle gate: the CI incarnation of [cqc selfcheck].

   Fixed seeds, so a failure here reproduces with
     cqc selfcheck --seed 0 --count 500
   The per-route budget keeps the whole run well under the 30-second
   alias budget: an exhausted route is skipped, never misreported. *)

let () =
  let report = Testkit.Selfcheck.run ~max_nodes:50_000 ~count:500 ~seed:0 () in
  Printf.printf "selfcheck: %d instance(s), %d decided, %d skipped\n%!"
    report.Testkit.Selfcheck.instances report.Testkit.Selfcheck.checked
    report.Testkit.Selfcheck.skipped;
  match report.Testkit.Selfcheck.issues with
  | [] -> print_endline "selfcheck: no disagreements, no rejected certificates"
  | issues ->
    List.iter
      (fun { Testkit.Selfcheck.seed; what } ->
        Printf.printf "selfcheck: seed %d: %s\n" seed what)
      issues;
    Printf.printf "selfcheck: FAILED on %d instance(s)\n%!" (List.length issues);
    exit 1
