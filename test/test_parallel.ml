(* The parallel layer: pool/race primitives, racer budgets, and the
   differential that justifies the sharded kernels — parallel AC-4 and
   parallel pebble counting must compute bit-identical fixpoints to their
   sequential twins on every instance.  Solver racing is covered at the
   end: verdict agreement across thread counts, with every Unsat passing
   the trusted certificate checker, and the losers of a race never
   contributing a verdict. *)

open Relational
open Helpers

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)

(* ------------------------------------------------------------------ *)
(* Pool                                                                *)
(* ------------------------------------------------------------------ *)

let test_pool_partition_sum () =
  let pool = Parallel.Pool.create 3 in
  let n = 1000 in
  let slots = Array.make (Parallel.Pool.size pool) 0 in
  let job shard =
    let acc = ref 0 in
    for i = 0 to n - 1 do
      if i mod Parallel.Pool.size pool = shard then acc := !acc + i
    done;
    slots.(shard) <- !acc
  in
  Parallel.Pool.run pool job;
  check_int "all shards sum to the full range" (n * (n - 1) / 2)
    (Array.fold_left ( + ) 0 slots);
  (* The pool is persistent: a second run reuses the same workers. *)
  Array.fill slots 0 (Array.length slots) 0;
  Parallel.Pool.run pool job;
  check_int "second run over the same pool" (n * (n - 1) / 2)
    (Array.fold_left ( + ) 0 slots);
  Parallel.Pool.shutdown pool;
  Parallel.Pool.shutdown pool (* idempotent *)

let test_pool_size_one_is_direct () =
  let pool = Parallel.Pool.create 1 in
  let ran = ref (-1) in
  Parallel.Pool.run pool (fun shard -> ran := shard);
  check_int "size-1 pool runs shard 0 on the caller" 0 !ran;
  Parallel.Pool.shutdown pool

exception Shard_boom

let test_pool_exception_then_reuse () =
  let pool = Parallel.Pool.create 3 in
  let raised =
    match Parallel.Pool.run pool (fun shard -> if shard = 1 then raise Shard_boom) with
    | () -> false
    | exception Shard_boom -> true
  in
  check "a shard's exception reaches the caller" true raised;
  (* The barrier completed, so the pool is still usable afterwards. *)
  let hits = Array.make 3 false in
  Parallel.Pool.run pool (fun shard -> hits.(shard) <- true);
  check "pool usable after a failed job" true (Array.for_all Fun.id hits);
  Parallel.Pool.shutdown pool

(* ------------------------------------------------------------------ *)
(* Race                                                                *)
(* ------------------------------------------------------------------ *)

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
    [| (fun () -> 1); (fun () -> raise Shard_boom); (fun () -> 3) |]
  in
  let consumed = ref 0 in
  let raised =
    match Parallel.Race.run ~threads:2 ~tasks ~consume:(fun _ -> incr consumed) with
    | () -> false
    | exception Shard_boom -> true
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
(* Differential: sharded AC-4 vs sequential                            *)
(* ------------------------------------------------------------------ *)

let pair_of_seed seed =
  QCheck.Gen.generate1
    ~rand:(Random.State.make [| 0x5eed; seed |])
    (gen_pair ~max_rels:3 ~max_arity:3 ~max_size_a:8 ~max_size_b:6
       ~max_tuples:12 ())

let domains_of ctx a =
  List.init (Structure.size a) (fun x -> Arc_consistency.dom_values ctx x)

let ac_differential_one pool a b =
  let ctx_seq = Arc_consistency.create a b in
  let ok_seq = Arc_consistency.establish ctx_seq in
  let ctx_par = Arc_consistency.create a b in
  let ok_par = Arc_consistency.establish ~pool ctx_par in
  check "establish verdict agrees" ok_seq ok_par;
  (* The AC closure is unique, so consistent outcomes must match exactly.
     On wipeout both engines stop early, at order-dependent partial
     states, so only the verdict is comparable. *)
  if ok_seq then begin
    Alcotest.(check (list (list int)))
      "identical arc-consistent domains" (domains_of ctx_seq a)
      (domains_of ctx_par a);
    check_int "identical removal counts"
      (Arc_consistency.removal_count ctx_seq)
      (Arc_consistency.removal_count ctx_par)
  end

let test_ac_differential () =
  let pools = [ Parallel.Pool.create 2; Parallel.Pool.create 3 ] in
  for seed = 0 to 149 do
    let a, b = pair_of_seed seed in
    List.iter (fun pool -> ac_differential_one pool a b) pools
  done;
  (* Fixed larger instances whose cascades exceed the inline threshold. *)
  List.iter
    (fun (a, b) -> List.iter (fun pool -> ac_differential_one pool a b) pools)
    [
      (undirected_cycle 31, k2);
      (clique 8, clique 6);
      (path 40, directed_cycle 3);
      (clique 5, undirected_cycle 7);
    ];
  List.iter Parallel.Pool.shutdown pools

(* Parallel establish must leave the context in a state [push]/[pop] can
   still unwind: assign after a sharded establish, pop, and the domains
   must come back. *)
let test_ac_parallel_then_backtrack () =
  let pool = Parallel.Pool.create 2 in
  let a = undirected_cycle 6 and b = k2 in
  let ctx = Arc_consistency.create a b in
  check "establish succeeds" true (Arc_consistency.establish ~pool ctx);
  let before = domains_of ctx a in
  Arc_consistency.push ctx;
  ignore (Arc_consistency.assign ctx 0 0);
  Arc_consistency.pop ctx;
  Alcotest.(check (list (list int)))
    "pop restores the parallel fixpoint" before (domains_of ctx a);
  Parallel.Pool.shutdown pool

(* ------------------------------------------------------------------ *)
(* Differential: sharded pebble counting vs sequential                 *)
(* ------------------------------------------------------------------ *)

let sorted_family f = List.sort compare f

let pebble_differential_one pool ~k a b =
  let fam_s, _, (st_s : Pebble.Game.stats) = Pebble.Game.run_traced ~k a b in
  let fam_p, trace_p, (st_p : Pebble.Game.stats) =
    Pebble.Game.run_traced ~pool ~k a b
  in
  check "winning family agrees" true (sorted_family fam_s = sorted_family fam_p);
  check_int "initial_configs agree" st_s.Pebble.Game.initial_configs
    st_p.Pebble.Game.initial_configs;
  check_int "removed agree" st_s.Pebble.Game.removed st_p.Pebble.Game.removed;
  check_int "supports_built agree" st_s.Pebble.Game.supports_built
    st_p.Pebble.Game.supports_built;
  (* A parallel Spoiler win must replay through the trusted checker: the
     round-concatenated trace is a valid derivation. *)
  if fam_p = [] && Structure.size a > 0 then
    check "parallel spoiler trace certifies" true
      (Certificate.check a b (Core.Certify.of_consistency ~trace:trace_p b))

let test_pebble_differential () =
  let pools = [ Parallel.Pool.create 2; Parallel.Pool.create 3 ] in
  for seed = 0 to 79 do
    let a, b = pair_of_seed seed in
    List.iter (fun pool -> pebble_differential_one pool ~k:2 a b) pools
  done;
  for seed = 80 to 99 do
    let a, b = pair_of_seed seed in
    List.iter (fun pool -> pebble_differential_one pool ~k:3 a b) pools
  done;
  (* Spoiler-win cascades large enough to leave the inline path. *)
  List.iter
    (fun (k, a, b) ->
      List.iter (fun pool -> pebble_differential_one pool ~k a b) pools)
    [
      (2, undirected_cycle 9, k2);
      (3, undirected_cycle 15, k2);
      (2, clique 4, undirected_cycle 5);
      (3, clique 4, clique 3);
    ];
  List.iter Parallel.Pool.shutdown pools

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
  let a, b = Core.Selfcheck.instance seed in
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
    let a, b = Core.Selfcheck.instance seed in
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

let () =
  Alcotest.run "parallel"
    [
      ( "pool",
        [
          Alcotest.test_case "partition sum" `Quick test_pool_partition_sum;
          Alcotest.test_case "size one direct" `Quick test_pool_size_one_is_direct;
          Alcotest.test_case "exception then reuse" `Quick
            test_pool_exception_then_reuse;
        ] );
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
      ( "ac differential",
        [
          Alcotest.test_case "parallel = sequential" `Quick test_ac_differential;
          Alcotest.test_case "backtrack after parallel" `Quick
            test_ac_parallel_then_backtrack;
        ] );
      ( "pebble differential",
        [ Alcotest.test_case "parallel = sequential" `Quick test_pebble_differential ]
      );
      ( "racing",
        [
          Alcotest.test_case "cancellation" `Quick test_race_cancellation;
          test_race_agreement;
          Alcotest.test_case "cancelled never contributes" `Quick
            test_cancelled_never_contributes;
        ] );
    ]
