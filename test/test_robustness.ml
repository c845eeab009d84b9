(* Robustness suite: budget semantics, portfolio degradation, adversarial
   parser inputs, Schaefer preconditions and the error taxonomy.

   The degradation properties are the contract of ISSUE's tentpole: a
   budgeted run may answer [Unknown], but must never contradict the
   unbudgeted answer. *)

open Relational
open Helpers
module Solver = Core.Solver
module Workloads = Testkit.Workloads
module Error = Core.Error

let check = Alcotest.(check bool)

let check_int = Alcotest.(check int)

let raises_exhausted reason f =
  match f () with
  | _ -> false
  | exception Budget.Exhausted r -> r = reason

(* ------------------------------------------------------------------ *)
(* Budget unit semantics                                                *)
(* ------------------------------------------------------------------ *)

let budget_tests =
  [
    Alcotest.test_case "unlimited never exhausts" `Quick (fun () ->
        check "flag" true (Budget.is_unlimited Budget.unlimited);
        let b = Budget.create () in
        for _ = 1 to 10_000 do
          Budget.tick b
        done;
        check "status" true (Budget.status b = None);
        check "remaining" true (Budget.remaining_nodes b = None));
    Alcotest.test_case "node limit allows exactly max_nodes ticks" `Quick
      (fun () ->
        let b = Budget.create ~max_nodes:3 () in
        Budget.tick b;
        Budget.tick b;
        Budget.tick b;
        check_int "spent" 3 (Budget.spent b);
        check "exhausted after limit" true (Budget.status b = Some Budget.Node_limit);
        check "next tick raises" true
          (raises_exhausted Budget.Node_limit (fun () -> Budget.tick b)));
    Alcotest.test_case "create rejects negative limits" `Quick (fun () ->
        let bad f = match f () with _ -> false | exception Invalid_argument _ -> true in
        check "nodes" true (bad (fun () -> Budget.create ~max_nodes:(-1) ()));
        check "timeout" true (bad (fun () -> Budget.create ~timeout:(-0.5) ())));
    Alcotest.test_case "deadline exhausts via check" `Quick (fun () ->
        let b = Budget.create ~timeout:0.01 () in
        Unix.sleepf 0.03;
        check "status" true (Budget.status b = Some Budget.Deadline);
        check "check raises" true
          (raises_exhausted Budget.Deadline (fun () -> Budget.check b)));
    Alcotest.test_case "cancellation flag, with precedence over other limits"
      `Quick (fun () ->
        let cancel = ref false in
        let b = Budget.create ~max_nodes:0 ~cancel () in
        check "not yet" true (Budget.status b = Some Budget.Node_limit);
        cancel := true;
        check "cancelled wins" true (Budget.status b = Some Budget.Cancelled);
        check "check raises" true
          (raises_exhausted Budget.Cancelled (fun () -> Budget.check b)));
    Alcotest.test_case "slice ticks propagate to the parent" `Quick (fun () ->
        let parent = Budget.create ~max_nodes:10 () in
        let child = Budget.slice parent ~max_nodes:100 () in
        for _ = 1 to 4 do
          Budget.tick child
        done;
        check_int "parent charged" 4 (Budget.spent parent);
        check "parent alive" true (Budget.status parent = None));
    Alcotest.test_case "slice is capped by the parent's remaining nodes" `Quick
      (fun () ->
        let parent = Budget.create ~max_nodes:10 () in
        let child = Budget.slice parent ~max_nodes:100 () in
        for _ = 1 to 10 do
          Budget.tick child
        done;
        check "child spent the parent" true
          (Budget.status parent = Some Budget.Node_limit);
        check "child raises" true
          (raises_exhausted Budget.Node_limit (fun () -> Budget.tick child)));
    Alcotest.test_case "slice shares the cancellation flag" `Quick (fun () ->
        let cancel = ref false in
        let parent = Budget.create ~cancel () in
        let child = Budget.slice parent ~max_nodes:50 () in
        cancel := true;
        check "child sees it" true
          (raises_exhausted Budget.Cancelled (fun () -> Budget.check child)));
    Alcotest.test_case "tick's strided clock coalesces gettimeofday calls"
      `Quick (fun () ->
        Budget.reset_clock_stats ();
        let b = Budget.create ~timeout:3600.0 () in
        let n = 200_000 in
        for _ = 1 to n do
          Budget.tick b
        done;
        let reads = Budget.clock_reads () in
        (* Every 256th tick probes the deadline; the self-calibrating
           stride must answer almost all probes from the cache. *)
        check "far fewer reads than probes" true (reads < n / 256 / 4);
        check "but the clock was consulted" true (reads > 0));
    Alcotest.test_case "the deadline still fires under the strided clock"
      `Quick (fun () ->
        Budget.reset_clock_stats ();
        let b = Budget.create ~timeout:0.05 () in
        let fired = ref false in
        (try
           (* Bounded backstop; the deadline aborts this loop long before
              the bound (stride staleness only delays it by ~2ms). *)
           for _ = 1 to 500_000_000 do
             Budget.tick b
           done
         with Budget.Exhausted Budget.Deadline -> fired := true);
        check "deadline fired" true !fired);
    Alcotest.test_case "check and status read the clock exactly" `Quick
      (fun () ->
        Budget.reset_clock_stats ();
        check_int "fresh stats" 0 (Budget.clock_reads ());
        let b = Budget.create ~timeout:3600.0 () in
        Budget.check b;
        check "check consulted the real clock" true (Budget.clock_reads () >= 1));
  ]

(* ------------------------------------------------------------------ *)
(* Portfolio degradation                                                *)
(* ------------------------------------------------------------------ *)

(* A budgeted verdict is consistent with the unbudgeted one when it is the
   same answer or [Unknown]; any [Sat] witness must actually check out. *)
let consistent a b budgeted unbudgeted =
  match (budgeted, unbudgeted) with
  | Solver.Unknown _, _ -> true
  | Solver.Sat h, Solver.Sat _ -> Homomorphism.is_homomorphism a b h
  | Solver.Unsat _, Solver.Unsat _ -> true
  | _ -> false

let degradation_tests =
  [
    qtest ~count:250 "tight budgets never contradict the full answer"
      (QCheck.pair (arbitrary_pair ()) (QCheck.int_range 1 60))
      (fun ((a, b), max_nodes) ->
        let full = (Solver.solve a b).Solver.verdict in
        let tight =
          (Solver.solve ~budget:(Budget.create ~max_nodes ()) a b).Solver.verdict
        in
        consistent a b tight full);
    qtest ~count:150 "generous budgets agree exactly" (arbitrary_pair ())
      (fun (a, b) ->
        let full = (Solver.solve a b).Solver.verdict in
        let roomy =
          (Solver.solve ~budget:(Budget.create ~max_nodes:2_000_000 ()) a b)
            .Solver.verdict
        in
        match (roomy, full) with
        | Solver.Sat h, Solver.Sat _ -> Homomorphism.is_homomorphism a b h
        | Solver.Unsat _, Solver.Unsat _ -> true
        | _ -> false);
    qtest ~count:150 "workload colorings degrade gracefully"
      (QCheck.pair (QCheck.int_range 0 10_000) (QCheck.int_range 1 40))
      (fun (seed, max_nodes) ->
        let a = Workloads.erdos_renyi ~seed ~n:6 ~p:0.4 in
        let b = Workloads.coloring_target 3 in
        let full = (Solver.solve a b).Solver.verdict in
        let tight =
          (Solver.solve ~budget:(Budget.create ~max_nodes ()) a b).Solver.verdict
        in
        consistent a b tight full);
    Alcotest.test_case "hard clique instance exhausts a small budget" `Quick
      (fun () ->
        let a = Workloads.clique 8 and b = Workloads.clique 7 in
        let r = Solver.solve ~budget:(Budget.create ~max_nodes:400 ()) a b in
        (match r.Solver.verdict with
        | Solver.Unknown _ -> ()
        | v -> Alcotest.failf "expected unknown, got %s" (Solver.verdict_name v));
        check "attempts were recorded" true (r.Solver.attempts <> []);
        check "no attempt claims a decision" true
          (List.for_all
             (fun at -> at.Solver.outcome <> Solver.Decided)
             r.Solver.attempts));
    Alcotest.test_case "same instance is settled without a budget" `Quick
      (fun () ->
        let a = Workloads.clique 6 and b = Workloads.clique 5 in
        let r = Solver.solve a b in
        check "unsat, certified" true (certified_verdict a b r = Some false));
    Alcotest.test_case "deadline aborts a large instance" `Quick (fun () ->
        let a = Workloads.clique 20 and b = Workloads.clique 19 in
        let r = Solver.solve ~budget:(Budget.create ~timeout:0.05 ()) a b in
        check "unknown (deadline)" true
          (r.Solver.verdict = Solver.Unknown Budget.Deadline));
    Alcotest.test_case "pre-cancelled budget yields unknown (cancelled)" `Quick
      (fun () ->
        let cancel = ref true in
        let r =
          Solver.solve
            ~budget:(Budget.create ~cancel ())
            (Workloads.clique 5) (Workloads.clique 4)
        in
        check "cancelled" true (r.Solver.verdict = Solver.Unknown Budget.Cancelled));
    Alcotest.test_case "budgeted containment degrades, never lies" `Quick
      (fun () ->
        let q1 = Workloads.chain_query 3 and q2 = Workloads.chain_query 2 in
        let full = Solver.solve_containment q1 q2 in
        check "contained" true (Solver.answer full <> None);
        let tight =
          Solver.solve_containment ~budget:(Budget.create ~max_nodes:2 ()) q1 q2
        in
        check "sat or unknown" true
          (match tight.Solver.verdict with
          | Solver.Sat _ | Solver.Unknown _ -> true
          | Solver.Unsat _ -> false));
  ]

(* ------------------------------------------------------------------ *)
(* Metamorphic properties                                               *)
(* ------------------------------------------------------------------ *)

(* The solver's verdict is a property of the instance up to isomorphism
   and up to semantics-preserving rewrites.  Each transformation below
   provably preserves the answer, so the transformed run must agree with
   the original — and both certificates must check (certified_verdict
   fails the test on a rejected one).  [Unknown] on either side is a
   pass: budgets are not part of the metamorphic contract. *)

let agree v v' =
  match (v, v') with None, _ | _, None -> true | Some x, Some y -> x = y

(* A random permutation of [0..n-1] drawn from a QCheck state. *)
let gen_permutation n =
  QCheck.Gen.(
    let* swaps = list_repeat (max 0 (n - 1)) (0 -- (n - 1)) in
    return
      (let p = Array.init n Fun.id in
       List.iteri
         (fun i j ->
           let i = i + 1 in
           let t = p.(i) in
           p.(i) <- p.(j mod (i + 1));
           p.(j mod (i + 1)) <- t)
         swaps;
       p))

let gen_renamed_pair =
  QCheck.Gen.(
    let* a, b = gen_pair () in
    let* pa = gen_permutation (Structure.size a) in
    let* pb = gen_permutation (Structure.size b) in
    return (a, b, pa, pb))

let renamed_arb =
  QCheck.make
    ~print:(fun (a, b, _, _) ->
      Format.asprintf "A = %a@.B = %a" Structure.pp a Structure.pp b)
    gen_renamed_pair

(* Duplicate existing facts: re-adding tuples a structure already holds
   is a no-op on its semantics. *)
let gen_duplicated_pair =
  QCheck.Gen.(
    let* a, b = gen_pair () in
    let facts = Structure.fold_tuples (fun r t acc -> (r, t) :: acc) a [] in
    let+ picks =
      match facts with
      | [] -> return []
      | _ -> list_size (1 -- 4) (oneofl facts)
    in
    let a' =
      List.fold_left (fun s (r, t) -> Structure.add_tuple s r t) a picks
    in
    (a, b, a'))

let duplicated_arb =
  QCheck.make
    ~print:(fun (a, b, _) ->
      Format.asprintf "A = %a@.B = %a" Structure.pp a Structure.pp b)
    gen_duplicated_pair

let metamorphic_tests =
  [
    qtest ~count:300 "verdict invariant under element renaming" renamed_arb
      (fun (a, b, pa, pb) ->
        let a' = Structure.map_universe a ~size:(Structure.size a) (Array.get pa) in
        let b' = Structure.map_universe b ~size:(Structure.size b) (Array.get pb) in
        agree
          (certified_verdict a b (Solver.solve a b))
          (certified_verdict a' b' (Solver.solve a' b')));
    qtest ~count:300 "verdict invariant under tuple duplication" duplicated_arb
      (fun (a, b, a') ->
        agree
          (certified_verdict a b (Solver.solve a b))
          (certified_verdict a' b (Solver.solve a' b)));
    qtest ~count:300
      "verdict invariant under disjoint union with satisfiable padding"
      (arbitrary_pair ())
      (fun (a, b) ->
        (* B maps into B by the identity, so hom(A ⊔ B -> B) exists iff
           hom(A -> B) does. *)
        let padded = Structure.disjoint_union a b in
        agree
          (certified_verdict a b (Solver.solve a b))
          (certified_verdict padded b (Solver.solve padded b)));
  ]

(* ------------------------------------------------------------------ *)
(* Parser fuzzing                                                       *)
(* ------------------------------------------------------------------ *)

(* Characters biased toward the two grammars, so mutations often stay
   near-valid (the interesting failure region) instead of being rejected
   by the first token. *)
let fuzz_chars =
  "azE_PQR' 0123456789\n\t(),.:-#[]@!"

let gen_fuzz_char = QCheck.Gen.(map (String.get fuzz_chars) (int_bound (String.length fuzz_chars - 1)))

let garbage_arb =
  QCheck.make ~print:String.escaped
    QCheck.Gen.(string_size ~gen:gen_fuzz_char (int_bound 80))

(* Mutate a valid input: truncate, overwrite, insert or delete at a random
   offset. *)
let mutate_gen base_gen =
  QCheck.Gen.(
    let* base = base_gen in
    let len = String.length base in
    if len = 0 then return base
    else
      let* op = int_bound 3 in
      let* i = int_bound (len - 1) in
      let* c = gen_fuzz_char in
      return
        (match op with
        | 0 -> String.sub base 0 i
        | 1 -> String.mapi (fun j x -> if j = i then c else x) base
        | 2 -> String.sub base 0 i ^ String.make 1 c ^ String.sub base i (len - i)
        | _ -> String.sub base 0 i ^ String.sub base (i + 1) (len - i - 1)))

let mutated_structure_arb =
  QCheck.make ~print:String.escaped
    (mutate_gen QCheck.Gen.(map Structure_text.print (gen_structure ())))

let query_text_gen =
  QCheck.Gen.(
    let* seed = int_bound 100_000 in
    return
      (Cq.Query.to_string
         (Workloads.random_query ~seed
            ~predicates:[ ("E", 2); ("P", 1); ("R", 3) ]
            ~variables:4 ~atoms:3)))

let mutated_query_arb =
  QCheck.make ~print:String.escaped (mutate_gen query_text_gen)

(* Either the input parses, or the parser reports a located error.  Any
   other exception crashes the property (reported by QCheck). *)
let structure_parse_total s =
  match Structure_text.parse s with
  | (_ : Structure.t) -> true
  | exception Structure_text.Parse_error (pos, msg) ->
    pos.Source_position.line >= 1 && pos.Source_position.col >= 1 && msg <> ""

let query_parse_total s =
  match Cq.Parser.parse s with
  | (_ : Cq.Query.t) -> true
  | exception Cq.Parser.Parse_error (pos, msg) ->
    pos.Source_position.line >= 1 && pos.Source_position.col >= 1 && msg <> ""

let fuzz_tests =
  [
    qtest ~count:250 "structure parser survives garbage" garbage_arb
      structure_parse_total;
    qtest ~count:250 "structure parser survives mutated valid input"
      mutated_structure_arb structure_parse_total;
    qtest ~count:200 "query parser survives garbage" garbage_arb
      query_parse_total;
    qtest ~count:200 "query parser survives mutated valid input"
      mutated_query_arb query_parse_total;
  ]

(* ------------------------------------------------------------------ *)
(* Located parse errors                                                 *)
(* ------------------------------------------------------------------ *)

let structure_error text =
  match Structure_text.parse text with
  | _ -> Alcotest.fail "expected a parse error"
  | exception Structure_text.Parse_error (pos, _) -> pos

let query_error text =
  match Cq.Parser.parse text with
  | _ -> Alcotest.fail "expected a parse error"
  | exception Cq.Parser.Parse_error (pos, _) -> pos

let position_tests =
  [
    Alcotest.test_case "structure errors carry line and column" `Quick
      (fun () ->
        let pos = structure_error "size 2\nE 0 9\n" in
        check_int "line" 2 pos.Source_position.line;
        check_int "col" 5 pos.Source_position.col;
        let pos = structure_error "size 2\n# fine\nE 0 zork\n" in
        check_int "line" 3 pos.Source_position.line);
    Alcotest.test_case "missing size is reported at the first token" `Quick
      (fun () ->
        let pos = structure_error "E 0 1\n" in
        check_int "line" 1 pos.Source_position.line;
        check_int "col" 1 pos.Source_position.col);
    Alcotest.test_case "query errors carry line and column" `Quick (fun () ->
        let pos = query_error "Q(X) :- E(X,@)" in
        check_int "line" 1 pos.Source_position.line;
        check_int "col" 13 pos.Source_position.col;
        let pos = query_error "Q(X) :-\n  E(X," in
        check_int "line" 2 pos.Source_position.line;
        let pos = query_error "Q(X) :-\n  E(X,@)" in
        check_int "line" 2 pos.Source_position.line;
        check_int "col" 7 pos.Source_position.col);
    Alcotest.test_case "a 20,000-atom query parses in linear time" `Quick (fun () ->
        (* Positions come from one cursor advanced with the scan; a
           rescan from the start per token took about 46 s here. *)
        let body =
          String.concat ",\n"
            (List.init 20_000 (fun i -> Printf.sprintf "E(X%d,X%d)" i (i + 1)))
        in
        let t0 = Unix.gettimeofday () in
        let q = Cq.Parser.parse ("Q(X0) :- " ^ body ^ ".") in
        let elapsed = Unix.gettimeofday () -. t0 in
        check_int "atoms" 20_000 (Cq.Query.atom_count q);
        if elapsed >= 2.0 then Alcotest.failf "parsing took %.2f s (bound 2 s)" elapsed;
        let pos = query_error ("Q(X0) :- " ^ body ^ ", @") in
        check_int "line" 20_000 pos.Source_position.line;
        check_int "col" (String.length "E(X19999,X20000), " + 1) pos.Source_position.col);
    Alcotest.test_case "to_string mentions both coordinates" `Quick (fun () ->
        let s = Source_position.to_string { Source_position.line = 4; col = 7 } in
        check "line" true (String.contains s '4');
        check "col" true (String.contains s '7'));
  ]

(* ------------------------------------------------------------------ *)
(* Error taxonomy and Schaefer preconditions                            *)
(* ------------------------------------------------------------------ *)

let bad_input f =
  match Error.guard f with
  | Error (Error.Bad_input _) -> true
  | Ok _ | Error _ -> false

let taxonomy_tests =
  [
    Alcotest.test_case "exit codes are distinct and documented" `Quick
      (fun () ->
        let codes =
          List.map Error.exit_code
            [
              Error.Bad_input "x";
              Error.Unsupported "x";
              Error.Budget_exhausted Budget.Node_limit;
              Error.Internal "x";
            ]
        in
        Alcotest.(check (list int)) "codes" [ 2; 3; 4; 5 ] codes);
    Alcotest.test_case "of_exn classifies library exceptions" `Quick (fun () ->
        let is cls e = Error.of_exn e = Some cls in
        check "invalid_arg" true (is (Error.Bad_input "x") (Invalid_argument "x"));
        check "budget" true
          (is
             (Error.Budget_exhausted Budget.Deadline)
             (Budget.Exhausted Budget.Deadline));
        check "parse" true
          (match
             Error.of_exn
               (Structure_text.Parse_error
                  ({ Source_position.line = 1; col = 1 }, "boom"))
           with
          | Some (Error.Bad_input _) -> true
          | _ -> false);
        check "failure is internal" true
          (match Error.of_exn (Failure "bug") with
          | Some (Error.Internal _) -> true
          | _ -> false);
        check "foreign exceptions pass through" true (Error.of_exn Exit = None));
    Alcotest.test_case "rejected booleanized decode is Internal with context"
      `Quick (fun () ->
        (* A decoded mapping that fails the homomorphism check is a
           violated invariant of Lemma 3.5, not the user's fault: the
           typed exception must classify as Internal (exit 5) and carry
           the booleanized-instance context, instead of the bare
           Invalid_argument (exit 2) it used to escape as. *)
        let exn =
          Schaefer.Booleanize.Decode_rejected
            {
              Schaefer.Booleanize.bits = 2;
              source_size = 3;
              target_size = 3;
              clamped = 1;
              mapping = [| 0; 0; 0 |];
            }
        in
        match Error.of_exn exn with
        | Some (Error.Internal msg as e) ->
          check_int "exit code" 5 (Error.exit_code e);
          let contains needle =
            let n = String.length needle and h = String.length msg in
            let rec go i =
              i + n <= h && (String.sub msg i n = needle || go (i + 1))
            in
            go 0
          in
          check "mentions the decode" true (contains "decode");
          check "carries the bit width" true (contains "2-bit");
          check "carries the clamp count" true (contains "1 clamped")
        | _ -> Alcotest.fail "expected Some Internal");
    Alcotest.test_case "guard captures, honest raisers raise" `Quick (fun () ->
        check "ok" true (Error.guard (fun () -> 41 + 1) = Ok 42);
        check "bad_input raiser" true
          (bad_input (fun () -> Error.bad_input "no good: %d" 7)));
    Alcotest.test_case "boolean relation arity cap is Bad_input" `Quick
      (fun () ->
        check "61 rejected" true
          (bad_input (fun () -> Schaefer.Boolean_relation.create 61 []));
        check "negative rejected" true
          (bad_input (fun () -> Schaefer.Boolean_relation.create (-1) [])));
    Alcotest.test_case "model enumeration nvars cap is Bad_input" `Quick
      (fun () ->
        check "cnf" true
          (bad_input (fun () ->
               Oracle.Models.cnf (Schaefer.Cnf.make ~nvars:23 [])));
        check "gf2" true
          (bad_input (fun () ->
               Oracle.Models.gf2 (Schaefer.Gf2.make_system ~nvars:23 []))));
    Alcotest.test_case "classification needs a Boolean universe" `Quick
      (fun () ->
        check "structure_classes" true
          (bad_input (fun () ->
               Schaefer.Classify.structure_classes (Workloads.clique 3)));
        check "boolean_relations" true
          (bad_input (fun () ->
               Schaefer.Classify.boolean_relations (Workloads.clique 3))));
    Alcotest.test_case "horn solvers reject the wrong fragment" `Quick
      (fun () ->
        let two_pos =
          Schaefer.Cnf.make ~nvars:2 [ [ Schaefer.Cnf.pos 0; Schaefer.Cnf.pos 1 ] ]
        in
        let two_neg =
          Schaefer.Cnf.make ~nvars:2 [ [ Schaefer.Cnf.neg 0; Schaefer.Cnf.neg 1 ] ]
        in
        check "solve wants horn" true
          (bad_input (fun () -> Schaefer.Horn_sat.solve two_pos));
        check "solve_dual wants dual horn" true
          (bad_input (fun () -> Schaefer.Horn_sat.solve_dual two_neg)));
    Alcotest.test_case "symbol missing from B acts as the empty relation"
      `Quick (fun () ->
        (* Pins the direct engines' Not_found path: a fact of A over a
           symbol B lacks can never be satisfied, so propagation must
           report no homomorphism rather than succeed vacuously. *)
        let vocab_a = Vocabulary.create [ ("R", 2); ("S", 1) ] in
        let b =
          Structure.of_relations
            (Vocabulary.create [ ("R", 2) ])
            ~size:2
            [ ("R", [ [| 0; 0 |]; [| 1; 1 |] ]) ]
        in
        let a =
          Structure.of_relations vocab_a ~size:1
            [ ("R", []); ("S", [ [| 0 |] ]) ]
        in
        check "bijunctive: no hom" true
          (Oracle.Schaefer_direct.solve_bijunctive a b = None);
        check "horn: no hom" true
          (Oracle.Schaefer_direct.solve_horn a b = None);
        let a' = Structure.of_relations vocab_a ~size:1 [ ("R", [ [| 0; 0 |] ]) ] in
        check "control: without the orphan fact a hom exists" true
          (Oracle.Schaefer_direct.solve_bijunctive a' b <> None));
  ]

let () =
  Alcotest.run "robustness"
    [
      ("budget", budget_tests);
      ("degradation", degradation_tests);
      ("metamorphic", metamorphic_tests);
      ("fuzz", fuzz_tests);
      ("positions", position_tests);
      ("taxonomy", taxonomy_tests);
    ]
