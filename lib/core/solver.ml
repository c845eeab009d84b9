open Relational

type route =
  | Preprocess
  | Schaefer_direct of Schaefer.Classify.schaefer_class
  | Booleanized of Schaefer.Classify.schaefer_class
  | Graph_target of Graph_dichotomy.verdict
  | Acyclic
  | Bounded_treewidth of int
  | Consistency_refutation of int
  | Backtracking

let route_name = function
  | Preprocess -> "preprocess"
  | Schaefer_direct cls -> "schaefer-direct(" ^ Schaefer.Classify.class_name cls ^ ")"
  | Booleanized cls -> "booleanized(" ^ Schaefer.Classify.class_name cls ^ ")"
  | Graph_target Graph_dichotomy.Polynomial -> "hell-nesetril(tractable graph)"
  | Graph_target Graph_dichotomy.Np_complete -> "hell-nesetril(np-complete)"
  | Acyclic -> "acyclic-yannakakis"
  | Bounded_treewidth w -> Printf.sprintf "treewidth-dp(width %d)" w
  | Consistency_refutation k -> Printf.sprintf "%d-consistency" k
  | Backtracking -> "backtracking"

type verdict =
  | Sat of Homomorphism.mapping
  | Unsat of Certificate.t
  | Unknown of Budget.exhausted_reason

type attempt_outcome =
  | Decided
  | Pruned
  | Exhausted of Budget.exhausted_reason
  | Inapplicable
  | Cancelled

let outcome_name = function
  | Decided -> "decided"
  | Pruned -> "pruned"
  | Exhausted reason ->
    Printf.sprintf "exhausted(%s)" (Budget.reason_to_string reason)
  | Inapplicable -> "inapplicable"
  | Cancelled -> "cancelled(lost race)"

type attempt = {
  route : route;
  nodes : int;
  outcome : attempt_outcome;
  counters : (string * int) list;
}

type result = { verdict : verdict; route : route; attempts : attempt list }

let answer r = match r.verdict with Sat h -> Some h | Unsat _ | Unknown _ -> None

let certificate r =
  match r.verdict with
  | Sat h -> Some (Certificate.Witness h)
  | Unsat c -> Some c
  | Unknown _ -> None

let verdict_name = function
  | Sat _ -> "sat"
  | Unsat _ -> "unsat"
  | Unknown reason ->
    Printf.sprintf "unknown (%s)" (Budget.reason_to_string reason)

(* The route table: one entry per tractable case of the paper, in
   dispatch order.  A driver runs an entry's guard only when it reaches
   the entry; the guard either rejects the instance (no attempt is
   recorded) or names the concrete route and a budgeted [run].  Two
   drivers read the one table: [fold] tries the entries in order
   (threads = 1), and [race] runs every independent entry concurrently
   next to a [fold] over the chained suffix (threads > 1). *)

(* What a route's run reports.  [Refuted] carries the (possibly
   expensive) construction of its checkable certificate, which runs
   under the route's own budget; if it exhausts that budget the answer
   is withheld and the driver falls through, exactly as for an exhausted
   route.  [Declined] is recorded as [Inapplicable]; [Pruned] hands a
   sound domain restriction on to the later entries. *)
type step =
  | Found of Homomorphism.mapping
  | Refuted of (Budget.t -> Certificate.t option)
  | Declined
  | Pruned of (int -> int -> bool)

(* The part of the remaining node allowance the sequential fold gives an
   entry: all of it, or a quarter for the expensive routes that leave
   room for a later, more general one. *)
type share = All | Quarter

type entry = {
  share : share;
  chained : bool;
      (* Produces or consumes the pruning restriction, so racing keeps
         the entry in the sequential suffix rather than its own task. *)
  guard : unit -> (route * run) option;
}

(* A run sees the restriction earlier entries produced and reports its
   engine counters next to its step. *)
and run = (int -> int -> bool) option -> Budget.t -> step * (string * int) list

let table ~max_treewidth ~consistency_k ~booleanize_threshold a b =
  let independent share guard = { share; chained = false; guard }
  and chained share guard = { share; chained = true; guard } in
  let plain f _ s = (f s, []) in
  [
    (* Boolean Schaefer target: the direct algorithms of Theorem 3.4. *)
    independent All (fun () ->
        if Structure.size b <> 2 then None
        else
          Option.map
            (fun cls ->
              ( Schaefer_direct cls,
                plain (fun s ->
                    match Schaefer.Uniform.solve_direct ~budget:s a b with
                    | Schaefer.Uniform.Hom h -> Found h
                    | Schaefer.Uniform.No_hom ->
                      Refuted (fun s -> Certify.of_schaefer_direct ~budget:s a b cls)
                    | Schaefer.Uniform.Not_applicable _ -> Declined) ))
            (Schaefer.Classify.classify b));
    (* Tractable undirected-graph target (Hell–Nešetřil). *)
    independent All (fun () ->
        if
          Graph_dichotomy.is_undirected_graph b
          && Vocabulary.equal (Structure.vocabulary a) (Structure.vocabulary b)
          && Graph_dichotomy.complexity b = Graph_dichotomy.Polynomial
        then
          Some
            ( Graph_target Graph_dichotomy.Polynomial,
              plain (fun s ->
                  Budget.check s;
                  match Graph_dichotomy.solve a b with
                  | Some h -> Found h
                  | None -> Refuted (fun _ -> Certify.of_graph a b)) )
        else None);
    (* Booleanized Schaefer target (Lemma 3.5) for small targets.  Only
       the encoding tells whether the case applies, so the guard solves
       and the run just reports the answer. *)
    independent All (fun () ->
        if Structure.size b > booleanize_threshold || Structure.size b < 1 then None
        else
          let route () =
            Booleanized
              (Option.value ~default:Schaefer.Classify.Affine
                 (Schaefer.Classify.classify (Schaefer.Booleanize.encode_target b)))
          in
          match Schaefer.Booleanize.solve a b with
          | Schaefer.Booleanize.Hom h -> Some (route (), plain (fun _ -> Found h))
          | Schaefer.Booleanize.No_hom ->
            Some
              ( route (),
                plain (fun _ -> Refuted (fun s -> Certify.of_booleanized ~budget:s a b)) )
          | Schaefer.Booleanize.Not_schaefer _ -> None);
    (* Acyclic source: Yannakakis semi-joins (querywidth 1). *)
    independent All (fun () ->
        if Treewidth.Hypergraph.is_acyclic a then
          Some
            ( Acyclic,
              plain (fun s ->
                  Budget.check s;
                  match Treewidth.Hypergraph.solve_acyclic a b with
                  | Some h -> Found h
                  | None -> Refuted (fun _ -> Certify.of_acyclic a b)) )
        else None);
    (* Bounded-treewidth source: dynamic programming (Theorem 5.4). *)
    independent Quarter (fun () ->
        let td = Treewidth.Td_solver.decompose a in
        let w = Treewidth.Tree_decomposition.width td in
        if w > max_treewidth then None
        else
          Some
            ( Bounded_treewidth w,
              plain (fun s ->
                  match Treewidth.Td_solver.solve_with_decomposition ~budget:s td a b with
                  | Some h -> Found h
                  | None -> Refuted (fun _ -> Certify.of_treewidth td a b)) ));
    (* k-consistency, the existential k-pebble game (Theorems 4.7–4.9):
       refutes outright, or prunes soundly — a pair [(x, v)] whose
       singleton configuration left the winning family lies on no
       homomorphism.  The counters come from the engine's returned stats,
       not from telemetry, so attempts do not depend on a sink. *)
    chained Quarter (fun () ->
        Some
          ( Consistency_refutation consistency_k,
            fun _ s ->
              let family, trace, st =
                Pebble.Game.run_traced ~budget:s ~k:consistency_k a b
              in
              let counters =
                [
                  ("pebble.configs_ranked", st.Pebble.Game.configs_ranked);
                  ("pebble.deaths_propagated", st.Pebble.Game.deaths_propagated);
                  ("pebble.initial_configs", st.Pebble.Game.initial_configs);
                  ("pebble.removed", st.Pebble.Game.removed);
                  ("pebble.supports_built", st.Pebble.Game.supports_built);
                ]
              in
              match family with
              | [] -> (Refuted (fun _ -> Some (Certify.of_consistency ~trace b)), counters)
              | _ ->
                let singles = Hashtbl.create 256 in
                List.iter
                  (function [ (x, v) ] -> Hashtbl.replace singles (x, v) () | _ -> ())
                  family;
                (Pruned (fun x v -> Hashtbl.mem singles (x, v)), counters) ));
    (* MAC backtracking (NP-complete in general) under the inherited
       pruning, certified by an independent exhaustive search. *)
    chained All (fun () ->
        Some
          ( Backtracking,
            fun restrict s ->
              match Homomorphism.decide ?restrict ~budget:s a b with
              | Budget.Sat h -> (Found h, [])
              | Budget.Unsat -> (Refuted (fun s -> Certify.of_backtracking ~budget:s a b), [])
              | Budget.Unknown reason -> raise (Budget.Exhausted reason) ));
  ]

(* Run one route under budget [s] and close its span with the attempt's
   identity as fields.  Answers the attempt record and, when the route
   settled the instance, the verdict; a [Pruned] step lands in
   [restrict].  Budget exhaustion — in the route or while building its
   refutation certificate — falls through.  A refutation whose
   certificate cannot be built at all is a cross-route disagreement, a
   solver bug that fails loudly. *)
let attempt restrict s route (run : run) =
  let sp = Telemetry.begin_span "solver.attempt" in
  let outcome, counters, verdict =
    match run !restrict s with
    | Found h, counters -> (Decided, counters, Some (Sat h))
    | Refuted build, counters -> (
      match build s with
      | Some cert -> (Decided, counters, Some (Unsat cert))
      | None ->
        Error.internal
          "route %s refuted the instance but no checkable certificate exists \
           (cross-route disagreement)"
          (route_name route)
      | exception Budget.Exhausted reason -> (Exhausted reason, counters, None))
    | Declined, counters -> (Inapplicable, counters, None)
    | Pruned p, counters ->
      restrict := Some p;
      ((Pruned : attempt_outcome), counters, None)
    | exception Budget.Exhausted reason -> (Exhausted reason, [], None)
  in
  let nodes = Budget.spent s in
  ignore
    (Telemetry.end_span sp
       ~fields:
         [
           ("route", Telemetry.String (route_name route));
           ("nodes", Telemetry.Int nodes);
           ("outcome", Telemetry.String (outcome_name outcome));
         ]);
  ({ route; nodes; outcome; counters }, verdict)

(* Prefer the global cause (deadline, cancellation) when the whole
   budget is spent. *)
let global_reason budget reason =
  match Budget.status budget with Some r -> r | None -> reason

let slice budget share =
  match (share, Budget.remaining_nodes budget) with
  | Quarter, Some r -> Budget.slice budget ~max_nodes:(max 1 (r / 4)) ()
  | _ -> Budget.slice budget ()

(* The sequential driver: try the entries in order, each under its share
   of what [budget] has left, until one settles the instance.  When none
   does, the verdict is [Unknown], credited to the last route that ran
   out (backtracking, which always runs). *)
let fold ~budget entries =
  let restrict = ref None in
  let rec go attempts last = function
    | [] ->
      let route, reason = last in
      { verdict = Unknown (global_reason budget reason); route; attempts = List.rev attempts }
    | e :: rest -> (
      match e.guard () with
      | None -> go attempts last rest
      | Some (route, run) -> (
        match attempt restrict (slice budget e.share) route run with
        | at, Some verdict -> { verdict; route; attempts = List.rev (at :: attempts) }
        | ({ outcome = Exhausted reason; _ } as at), None ->
          go (at :: attempts) (route, reason) rest
        | at, None -> go (at :: attempts) last rest))
  in
  go [] (Backtracking, Budget.Node_limit) entries

(* Portfolio racing (threads > 1).  Each independent entry is a task
   under its own [Budget.racer]; the chained suffix is one more task
   running [fold] over those entries, so the pruning chain survives.
   The calling domain consumes finishers in completion order and the
   first claim that passes the trusted certificate checker wins; it
   raises the shared cancel flag every other racer's budget polls.
   Losers are recorded as [Cancelled] and never contribute a verdict; a
   claim that fails the checker is dropped (counted as
   [solver.race.uncertified]) and the race goes on. *)
let race ~budget ~threads a b entries =
  let cancel = ref false in
  (* A task answers the attempts it recorded (chronological), at most
     one claim on the verdict, and its spend.  Budget exhaustion never
     escapes a task; [Error.internal] still does, loudly, through
     [Race.run]. *)
  let task body () =
    let s = Budget.racer budget ~cancel in
    let attempts, claim = body s in
    (attempts, claim, Budget.spent s)
  in
  let independent, chain = List.partition (fun e -> not e.chained) entries in
  let tasks =
    List.map
      (fun e ->
        task (fun s ->
            match e.guard () with
            | None -> ([], None)
            | Some (route, run) ->
              let at, verdict = attempt (ref None) s route run in
              ([ at ], Option.map (fun v -> (v, route)) verdict)))
      independent
    @ [
        task (fun s ->
            let r = fold ~budget:s chain in
            (r.attempts, Some (r.verdict, r.route)));
      ]
  in
  let attempts = ref [] and winner = ref None and fallback = ref None in
  let accept cert claim =
    if Certificate.check a b cert then begin
      winner := Some claim;
      cancel := true
    end
    else Telemetry.count "solver.race.uncertified" 1
  in
  let consume { Parallel.Race.value = racer_attempts, claim, spent; _ } =
    (* Merge the racer's spend before adjudicating, so the portfolio
       budget reflects all work performed on its behalf. *)
    Budget.charge budget spent;
    let lost = !winner <> None in
    (* After a winner: a finisher's decision was discarded and a racer
       aborted by the race flag lost — both are [Cancelled].  A
       pre-winner [Exhausted Cancelled] is the user's own cancellation
       and stays as it is, as do [Pruned]/[Inapplicable]/other
       exhaustions. *)
    let adjust at =
      match at.outcome with
      | (Decided | Exhausted Budget.Cancelled) when lost ->
        { at with outcome = Cancelled }
      | _ -> at
    in
    List.iter (fun at -> attempts := adjust at :: !attempts) racer_attempts;
    if not lost then
      match claim with
      | None -> ()
      | Some ((Sat h, _) as claim) -> accept (Certificate.Witness h) claim
      | Some ((Unsat c, _) as claim) -> accept c claim
      | Some (Unknown reason, route) ->
        if !fallback = None then fallback := Some (route, reason)
  in
  Parallel.Race.run ~threads ~tasks:(Array.of_list tasks) ~consume;
  let verdict, route =
    match (!winner, !fallback) with
    | Some claim, _ -> claim
    | None, Some (route, reason) -> (Unknown (global_reason budget reason), route)
    | None, None -> (Unknown (global_reason budget Budget.Node_limit), Backtracking)
  in
  { verdict; route; attempts = List.rev !attempts }

let solve_inner ~max_treewidth ~consistency_k ~booleanize_threshold ~budget
    ~threads a b =
  let entries = table ~max_treewidth ~consistency_k ~booleanize_threshold a b in
  let span = Telemetry.begin_span "solver.solve" in
  let r, fields =
    if threads <= 1 then (fold ~budget entries, [])
    else (race ~budget ~threads a b entries, [ ("threads", Telemetry.Int threads) ])
  in
  ignore
    (Telemetry.end_span span
       ~fields:
         (("verdict", Telemetry.String (verdict_name r.verdict))
         :: ("route", Telemetry.String (route_name r.route))
         :: fields));
  r

(* ------------------------------------------------------------------ *)
(* Structural preprocessing (DESIGN.md section 16).                     *)
(*                                                                      *)
(* Ahead of the portfolio the source is decomposed into connected       *)
(* components (textually identical ones deduplicated), each component   *)
(* folded and cored by [Preprocess.shrink_source], and each shrunk      *)
(* piece solved independently against [B] — sequentially, or over a     *)
(* [Parallel.Pool] with racer budgets when [threads > 1] supplies more  *)
(* than one part.  Verdicts conjoin: any part's refutation refutes the  *)
(* whole (wrapped in [Certificate.Via_preprocess] so the trusted        *)
(* checker can replay the shrink), and per-part witnesses reassemble    *)
(* through the fold maps into a witness on the raw source, re-verified  *)
(* here before it is returned.  Budget exhaustion inside the shrink     *)
(* pipeline degrades to the unshrunk instance (the verdict never        *)
(* changes, only the work to reach it), surfaced in the                 *)
(* [preprocess.bailouts] counter of the leading attempt record.         *)
(* ------------------------------------------------------------------ *)

let preprocess_attempt ?(extra = []) ~nodes ~outcome stats =
  { route = Preprocess; nodes; outcome; counters = extra @ Preprocess.counters stats }

let solve_preprocessed ~max_treewidth ~consistency_k ~booleanize_threshold
    ~budget ~threads a b =
  let decided_by_preprocess ~counters verdict =
    {
      verdict;
      route = Preprocess;
      attempts = [ { route = Preprocess; nodes = 0; outcome = Decided; counters } ];
    }
  in
  (* A fact over an empty, absent or arity-clashing relation refutes
     outright.  This also keeps the per-component conjunction sound for
     nullary facts, which survive [Structure.induced] into every part. *)
  match Schaefer.Certify.empty_relation_refutation a b with
  | Some cert ->
    decided_by_preprocess
      ~counters:[ ("preprocess.empty_relation", 1) ]
      (Unsat cert)
  | None when Structure.size a = 0 ->
    (* No elements and every nullary fact present in [B] (the shortcut
       above just checked): the empty map is a witness. *)
    decided_by_preprocess ~counters:[ ("preprocess.empty_source", 1) ] (Sat [||])
  | None ->
    let before = Budget.spent budget in
    let src =
      Telemetry.with_span "solver.preprocess" (fun () ->
          Preprocess.shrink_source ~budget a)
    in
    let stats = src.Preprocess.stats in
    let pre_attempt =
      preprocess_attempt
        ~nodes:(Budget.spent budget - before)
        ~outcome:
          (if
             stats.Preprocess.shrunk_elements < stats.Preprocess.raw_elements
             || stats.Preprocess.components > 1
           then Pruned
           else Inapplicable)
        stats
    in
    let parts = src.Preprocess.parts in
    let nparts = Array.length parts in
    (* Solve one shrunk piece: the AC-4 singleton-domain substitution
       decides [Sat] outright when propagation forces a unique certified
       assignment; otherwise (or when the budget is already spent — the
       portfolio reports exhaustion uniformly) the full dispatcher runs. *)
    let solve_piece ~threads ~budget piece =
      match Preprocess.ac_singleton_witness ~budget piece b with
      | Some h ->
        decided_by_preprocess ~counters:[ ("preprocess.ac_singleton", 1) ] (Sat h)
      | None | (exception Budget.Exhausted _) ->
        solve_inner ~max_treewidth ~consistency_k ~booleanize_threshold ~budget
          ~threads piece b
    in
    let results = Array.make nparts None in
    if threads > 1 && nparts > 1 then begin
      (* Parts race across a pool: first refutation raises the shared
         cancel flag; every racer's spend is merged back afterwards. *)
      let shards = min threads nparts in
      let pool = Parallel.Pool.create shards in
      let cancel = ref false in
      let budgets = Array.init nparts (fun _ -> Budget.racer budget ~cancel) in
      Fun.protect
        ~finally:(fun () -> Parallel.Pool.shutdown pool)
        (fun () ->
          Parallel.Pool.run pool (fun shard ->
              let i = ref shard in
              while !i < nparts do
                let r =
                  solve_piece ~threads:1 ~budget:budgets.(!i)
                    parts.(!i).Preprocess.shrink.Preprocess.structure
                in
                results.(!i) <- Some r;
                (match r.verdict with Unsat _ -> cancel := true | _ -> ());
                i := !i + shards
              done));
      Array.iter (fun s -> Budget.charge budget (Budget.spent s)) budgets
    end
    else
      (try
         Array.iteri
           (fun i p ->
             results.(i) <-
               Some (solve_piece ~threads ~budget p.Preprocess.shrink.Preprocess.structure);
             match results.(i) with
             | Some { verdict = Unsat _; _ } -> raise Exit
             | _ -> ())
           parts
       with Exit -> ());
    let attempts =
      pre_attempt
      :: List.concat_map
           (function Some (r : result) -> r.attempts | None -> [])
           (Array.to_list results)
    in
    let finish verdict route = { verdict; route; attempts } in
    let refuted = ref None
    and unknown = ref None in
    Array.iteri
      (fun i r ->
        match r with
        | Some { verdict = Unsat c; route; _ } when !refuted = None ->
          refuted := Some (i, c, route)
        | Some { verdict = Unknown reason; route; _ } when !unknown = None ->
          unknown := Some (reason, route)
        | None when !unknown = None ->
          (* A part skipped after an earlier refutation decided the
             conjunction; never reached without one. *)
          ()
        | _ -> ())
      results;
    (match !refuted with
    | Some (i, cert, route) ->
      finish (Unsat (Preprocess.wrap_certificate src i cert)) route
    | None -> (
      match !unknown with
      | Some (reason, route) -> finish (Unknown (global_reason budget reason)) route
      | None ->
        let witnesses =
          Array.map
            (function
              | Some r -> (
                match answer r with
                | Some h -> h
                | None -> assert false (* neither refuted nor unknown *))
              | None -> assert false)
            results
        in
        let h = Preprocess.assemble_witness src (fun i -> witnesses.(i)) in
        if not (Homomorphism.is_homomorphism a b h) then
          Error.internal
            "preprocess witness reassembly produced a non-homomorphism \
             (shrink certification bug)";
        let route =
          match results.(0) with Some r -> r.route | None -> Preprocess
        in
        finish (Sat h) route))

let solve ?(max_treewidth = 3) ?(consistency_k = 2) ?(booleanize_threshold = 4)
    ?(budget = Budget.unlimited) ?(threads = 1) ?(preprocess = true) a b =
  if preprocess then
    solve_preprocessed ~max_treewidth ~consistency_k ~booleanize_threshold
      ~budget ~threads a b
  else
    solve_inner ~max_treewidth ~consistency_k ~booleanize_threshold ~budget
      ~threads a b

let lift_target (r : Preprocess.retraction) (res : result) =
  match Preprocess.target_step r with
  | None -> res
  | Some st -> (
    match res.verdict with
    | Sat h ->
      { res with verdict = Sat (Array.map (fun v -> r.Preprocess.embed.(v)) h) }
    | Unsat c ->
      {
        res with
        verdict =
          Unsat
            (Certificate.Via_preprocess
               { source = []; target = Some st; inner = c });
      }
    | Unknown _ -> res)

let exists a b =
  match (solve a b).verdict with Sat _ -> true | Unsat _ | Unknown _ -> false

let containment_instance q1 q2 =
  if Cq.Query.arity q1 <> Cq.Query.arity q2 then
    invalid_arg "Solver.solve_containment: head arities differ";
  let d1, _ = Cq.Canonical.database q1 in
  let d2, _ = Cq.Canonical.database q2 in
  (d2, d1)

let solve_containment ?budget ?threads ?preprocess q1 q2 =
  let s, t = containment_instance q1 q2 in
  solve ?budget ?threads ?preprocess s t
