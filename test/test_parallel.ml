(* The parallel layer: the race primitive, racer budgets, and the two
   places the solver races on it.  Route racing is checked for verdict
   agreement across thread counts, with every Unsat passing the trusted
   certificate checker and the losers of a race never contributing a
   verdict.  Part racing is checked on disconnected sources whose
   components race each other under racer budgets charged back into the
   caller's budget. *)

open Relational
open Helpers

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)

(* ------------------------------------------------------------------ *)
(* Race                                                                *)
(* ------------------------------------------------------------------ *)

exception Task_boom

let test_race_sequential_order () =
  let tasks = Array.init 5 (fun i -> fun () -> i * 10) in
  let seen = ref [] in
  Parallel.Race.run ~threads:1 ~tasks ~consume:(fun e ->
      seen := (e.Parallel.Race.index, e.Parallel.Race.value) :: !seen);
  Alcotest.(check (list (pair int int)))
    "threads=1 delivers in array order"
    [ (0, 0); (1, 10); (2, 20); (3, 30); (4, 40) ]
    (List.rev !seen)

let test_race_all_consumed () =
  let tasks = Array.init 8 (fun i -> fun () -> i) in
  let seen = Array.make 8 false in
  Parallel.Race.run ~threads:4 ~tasks ~consume:(fun e ->
      check_int "value matches index" e.Parallel.Race.index e.Parallel.Race.value;
      seen.(e.Parallel.Race.index) <- true);
  check "every task consumed exactly once" true (Array.for_all Fun.id seen)

let test_race_task_exception () =
  let tasks =
    [| (fun () -> 1); (fun () -> raise Task_boom); (fun () -> 3) |]
  in
  let consumed = ref 0 in
  let raised =
    match Parallel.Race.run ~threads:2 ~tasks ~consume:(fun _ -> incr consumed) with
    | () -> false
    | exception Task_boom -> true
  in
  check "task exception re-raised after the drain" true raised

(* ------------------------------------------------------------------ *)
(* Racer budgets                                                       *)
(* ------------------------------------------------------------------ *)

let test_racer_inherits_remaining () =
  let parent = Budget.create ~max_nodes:50 () in
  for _ = 1 to 10 do Budget.tick parent done;
  let r = Budget.racer parent ~cancel:(ref false) in
  Alcotest.(check (option int))
    "racer allowance = parent's remaining" (Some 40) (Budget.remaining_nodes r)

let test_racer_cancel_flag () =
  let parent = Budget.create ~max_nodes:1000 () in
  let cancel = ref false in
  let r = Budget.racer parent ~cancel in
  Budget.check r;
  cancel := true;
  check "cancel flag exhausts the racer" true
    (Budget.status r = Some Budget.Cancelled);
  check "the parent is untouched" true (Budget.status parent = None)

let test_racer_sees_user_cancel () =
  (* The user's own cancellation must reach every racer, through the
     node-less upstream link. *)
  let user = ref false in
  let parent = Budget.create ~cancel:user () in
  let r = Budget.racer parent ~cancel:(ref false) in
  Budget.check r;
  user := true;
  check "user cancel reaches the racer" true
    (Budget.status r = Some Budget.Cancelled)

let test_charge_accumulates () =
  let parent = Budget.create ~max_nodes:100 () in
  let r = Budget.racer parent ~cancel:(ref false) in
  for _ = 1 to 7 do Budget.tick r done;
  check_int "racer ticks stay private" 0 (Budget.spent parent);
  Budget.charge parent (Budget.spent r);
  check_int "charge merges the racer's spend" 7 (Budget.spent parent);
  Budget.charge parent 0;
  check_int "charging zero is a no-op" 7 (Budget.spent parent);
  (* Charging past the limit never raises; the next check surfaces it. *)
  Budget.charge parent 1000;
  check "over-charge surfaces on the next probe" true
    (Budget.status parent = Some Budget.Node_limit)

(* ------------------------------------------------------------------ *)
(* Portfolio racing                                                    *)
(* ------------------------------------------------------------------ *)

(* Cooperative cancellation through the race: the poller can only finish
   after the consumer accepts the winner and raises the flag, so the
   winner is always delivered first and the loser observably lost. *)
let test_race_cancellation () =
  let cancel = ref false in
  let order = ref [] in
  let tasks =
    [|
      (fun () -> `Winner);
      (fun () ->
        while not !cancel do
          Domain.cpu_relax ()
        done;
        `Loser);
    |]
  in
  Parallel.Race.run ~threads:2 ~tasks ~consume:(fun e ->
      order := e.Parallel.Race.value :: !order;
      if e.Parallel.Race.value = `Winner then cancel := true);
  Alcotest.(check bool)
    "winner consumed first, cancelled poller after" true
    (List.rev !order = [ `Winner; `Loser ])

(* The racing dispatcher agrees with the sequential one on the
   selfcheck instance distribution, and every definite racing verdict
   carries a certificate the trusted checker accepts. *)
let race_agreement_prop threads seed =
  let a, b = Testkit.Selfcheck.instance seed in
  let budget () = Budget.create ~max_nodes:200_000 () in
  let r1 = Core.Solver.solve ~budget:(budget ()) a b in
  let rn = Core.Solver.solve ~budget:(budget ()) ~threads a b in
  let certified =
    match rn.Core.Solver.verdict with
    | Core.Solver.Sat h -> Certificate.check a b (Certificate.Witness h)
    | Core.Solver.Unsat c -> Certificate.check a b c
    | Core.Solver.Unknown _ -> true
  in
  let agree =
    match (r1.Core.Solver.verdict, rn.Core.Solver.verdict) with
    | Core.Solver.Sat _, Core.Solver.Unsat _
    | Core.Solver.Unsat _, Core.Solver.Sat _ -> false
    | _ -> true
  in
  certified && agree

let test_race_agreement =
  qtest ~count:320 "solve ~threads agrees with threads=1"
    QCheck.(make ~print:string_of_int Gen.(int_bound 100_000))
    (fun seed -> race_agreement_prop (2 + (seed mod 3)) seed)

(* A cancelled route never contributes a verdict: whatever attempt got
   rewritten to [Cancelled] is never the route the result credits, and
   the verdict that did win is certified.  Racing also never skips a
   route the sequential dispatcher tries: both read the same guards. *)
let test_cancelled_never_contributes () =
  for seed = 0 to 59 do
    let a, b = Testkit.Selfcheck.instance seed in
    let r = Core.Solver.solve ~threads:4 a b in
    let names (r : Core.Solver.result) =
      List.map
        (fun (at : Core.Solver.attempt) -> Core.Solver.route_name at.Core.Solver.route)
        r.Core.Solver.attempts
    in
    let raced = names r in
    List.iter
      (fun name ->
        check
          (Printf.sprintf "seed %d: route %s tried sequentially is raced" seed name)
          true (List.mem name raced))
      (names (Core.Solver.solve ~threads:1 a b));
    List.iter
      (fun at ->
        if at.Core.Solver.outcome = Core.Solver.Cancelled then
          check "cancelled attempt is not the verdict route" true
            (at.Core.Solver.route <> r.Core.Solver.route))
      r.Core.Solver.attempts;
    (match
       List.find_opt
         (fun (at : Core.Solver.attempt) ->
           at.Core.Solver.route = r.Core.Solver.route)
         r.Core.Solver.attempts
     with
    | Some at ->
      check "the verdict route's own attempt was never cancelled" true
        (at.Core.Solver.outcome <> Core.Solver.Cancelled)
    | None -> ());
    match r.Core.Solver.verdict with
    | Core.Solver.Sat h ->
      check "racing witness certified" true
        (Certificate.check a b (Certificate.Witness h))
    | Core.Solver.Unsat c ->
      check "racing refutation certified" true (Certificate.check a b c)
    | Core.Solver.Unknown _ -> ()
  done

(* Solve each [(name, a, expect_sat)] into [b] at threads 1, 2 and 3:
   the verdict is the expected one and its certificate checks, the
   racers' spend is charged back into the caller's budget, [split] holds
   of the attempts, and a one-node budget degrades [unsat] to [Unknown]
   instead of raising. *)
let check_races ?(split = fun _ -> true) b cases unsat =
  List.iter
    (fun (name, a, expect_sat) ->
      List.iter
        (fun threads ->
          let label what = Printf.sprintf "%s, threads=%d: %s" name threads what in
          (* A node limit makes route slices tick through to this budget,
             so its spend must cover every attempt's nodes. *)
          let budget = Budget.create ~max_nodes:1_000_000 () in
          let r = Core.Solver.solve ~budget ~threads a b in
          check (label "split") true (split r.Core.Solver.attempts);
          (match r.Core.Solver.verdict with
          | Core.Solver.Sat h ->
            check (label "sat") expect_sat true;
            check (label "witness certified") true
              (Certificate.check a b (Certificate.Witness h))
          | Core.Solver.Unsat c ->
            check (label "sat") expect_sat false;
            check (label "refutation certified") true (Certificate.check a b c)
          | Core.Solver.Unknown _ -> Alcotest.failf "%s" (label "unexpected unknown"));
          let attempted =
            List.fold_left
              (fun acc (at : Core.Solver.attempt) -> acc + at.Core.Solver.nodes)
              0 r.Core.Solver.attempts
          in
          check (label "parent budget spent") true (Budget.spent budget > 0);
          check (label "parent spend covers every attempt") true
            (Budget.spent budget >= attempted))
        [ 1; 2; 3 ])
    cases;
  List.iter
    (fun threads ->
      match
        (Core.Solver.solve ~budget:(Budget.create ~max_nodes:1 ()) ~threads unsat b)
          .Core.Solver.verdict
      with
      | Core.Solver.Unknown _ -> ()
      | _ -> Alcotest.failf "max_nodes=1, threads=%d: expected unknown" threads)
    [ 1; 2; 3 ]

(* Part racing: a disconnected source splits into one part per distinct
   component, and with [threads > 1] the parts race through
   [Parallel.Race], each on its own racer budget.  Into K2 the head's
   polynomial routes race on the raw source first (hell-nesetril
   2-colours it), so with one node they too must run out at every
   thread count. *)
let test_part_race () =
  let ( ++ ) = Structure.disjoint_union in
  let unsat = undirected_cycle 4 ++ undirected_cycle 5 ++ undirected_cycle 6 in
  let sat = undirected_cycle 4 ++ undirected_cycle 6 in
  check_races k2 [ ("C4+C5+C6 -> K2", unsat, false); ("C4+C6 -> K2", sat, true) ] unsat

(* K3 is an NP-complete graph template and the sources are cyclic, so
   no head route decides: every solve splits at the preprocessing
   boundary into three parts, which race over the tail. *)
let test_three_part_race () =
  let ( ++ ) = Structure.disjoint_union in
  let unsat = undirected_cycle 4 ++ clique 4 ++ undirected_cycle 6 in
  let sat = undirected_cycle 4 ++ undirected_cycle 5 ++ undirected_cycle 6 in
  let three_parts =
    List.exists (fun (at : Core.Solver.attempt) ->
        at.route = Core.Solver.Preprocess
        && List.assoc_opt "preprocess.components" at.counters = Some 3)
  in
  check_races ~split:three_parts (clique 3)
    [ ("C4+K4+C6 -> K3", unsat, false); ("C4+C5+C6 -> K3", sat, true) ]
    unsat

let () =
  Alcotest.run "parallel"
    [
      ( "race",
        [
          Alcotest.test_case "sequential order" `Quick test_race_sequential_order;
          Alcotest.test_case "all consumed" `Quick test_race_all_consumed;
          Alcotest.test_case "task exception" `Quick test_race_task_exception;
        ] );
      ( "racer budgets",
        [
          Alcotest.test_case "inherits remaining" `Quick test_racer_inherits_remaining;
          Alcotest.test_case "cancel flag" `Quick test_racer_cancel_flag;
          Alcotest.test_case "user cancel" `Quick test_racer_sees_user_cancel;
          Alcotest.test_case "charge accumulates" `Quick test_charge_accumulates;
        ] );
      ( "racing",
        [
          Alcotest.test_case "cancellation" `Quick test_race_cancellation;
          test_race_agreement;
          Alcotest.test_case "cancelled never contributes" `Quick
            test_cancelled_never_contributes;
        ] );
      ( "racing disconnected",
        [
          Alcotest.test_case "part race" `Quick test_part_race;
          Alcotest.test_case "three-part race" `Quick test_three_part_race;
        ] );
    ]
