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

(* The solver never emits a certificate it cannot build, so a rejection
   is a checker/solver disagreement: a bug. *)
let checked_certificate a b r =
  match certificate r with
  | None -> None
  | Some c ->
    if Certificate.check a b c then Some c
    else
      Error.internal "the checker rejected the %s certificate of route %s"
        (Certificate.describe c) (route_name r.route)

let verdict_name = function
  | Sat _ -> "sat"
  | Unsat _ -> "unsat"
  | Unknown reason ->
    Printf.sprintf "unknown (%s)" (Budget.reason_to_string reason)

(* The route table: one entry per tractable case of the paper, in
   dispatch order, cut in two at the preprocessing boundary.  The head
   ([head]) decides the raw source: its guards read only the template
   and the vocabularies, or the source's shape (acyclic), so shrinking
   first buys them nothing.  When no head entry decides, the source is
   shrunk and the tail ([tail]) runs on each shrunk part.  A driver runs
   an entry's guard only when it reaches the entry; the guard either
   rejects the instance (no attempt is recorded) or names the concrete
   route and a budgeted [run].  Two drivers read either half: [fold]
   tries the entries in order (threads = 1), and [race] runs every
   independent entry concurrently next to a [fold] over the chained
   suffix (threads > 1). *)

(* A sound domain restriction: [keep x v] is false only for pairs on no
   homomorphism, each of which is dead by the derivation [lemmas] or is
   not a partial homomorphism on its own. *)
type restriction = { keep : int -> int -> bool; lemmas : (Certificate.config * int) list }

(* What a route's run reports.  [Refuted] carries the checkable
   certificate the run built from its own data, under its own budget.
   [Declined] is recorded as [Inapplicable]; [Pruned] hands a sound
   domain restriction on to the later entries. *)
type step =
  | Found of Homomorphism.mapping
  | Refuted of Certificate.t
  | Declined
  | Pruned of restriction

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
and run = restriction option -> Budget.t -> step * (string * int) list

let or_empty_target a b cert =
  if Structure.size b = 0 && Structure.size a > 0 then Certificate.no_image else cert

let independent share guard = { share; chained = false; guard }
let chained share guard = { share; chained = true; guard }
let plain f _ s = (f s, [])

(* Acyclic source: Yannakakis semi-joins (querywidth 1) over the GYO
   join forest, which also certifies a refutation: the checker re-runs
   the semi-joins on it. *)
let acyclic a b =
  independent All (fun () ->
      Option.map
        (fun (forest : Treewidth.Hypergraph.join_forest) ->
          ( Acyclic,
            plain (fun s ->
                Budget.check s;
                match Treewidth.Hypergraph.solve_with_forest ~budget:s forest a b with
                | Some h -> Found h
                | None ->
                  let facts =
                    Array.map (fun (symbol, fact) -> { Certificate.symbol; fact }) forest.facts
                  in
                  Refuted
                    (or_empty_target a b
                       (Certificate.Semijoin_empty { facts; parent = forest.parent }))) ))
        (Treewidth.Hypergraph.join_forest a))

let head ~booleanize_threshold a b =
  [
    (* Boolean Schaefer target: the formula pass of Theorem 3.3, which
       refutes with the certificate it found. *)
    independent All (fun () ->
        if Structure.size b <> 2 then None
        else
          Option.map
            (fun cls ->
              ( Schaefer_direct cls,
                plain (fun s ->
                    match Schaefer.Uniform.solve ~budget:s a b with
                    | Schaefer.Uniform.Hom h -> Found h
                    | Schaefer.Uniform.No_hom cert -> Refuted cert
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
                  match Graph_dichotomy.solve ~budget:s a b with
                  | Ok h -> Found h
                  | Error cert -> Refuted cert) )
        else None);
    (* Booleanized Schaefer target (Lemma 3.5) for small targets.  The
       guard reads the vocabularies and classifies the encoded target,
       scanning the source for an empty-relation fact only when that
       class is missing; it rejects exactly the pairs on which
       [Booleanize.solve] answers [Not_schaefer]. *)
    independent All (fun () ->
        if
          Structure.size b > booleanize_threshold
          || Structure.size b < 1
          || Schaefer.Uniform.arity_mismatch a b
        then None
        else
          match Schaefer.Classify.classify (Schaefer.Booleanize.encode_target b) with
          | None when Schaefer.Uniform.empty_relation_refutation a b = None -> None
          | cls ->
            Some
              ( Booleanized (Option.value ~default:Schaefer.Classify.Affine cls),
                plain (fun s ->
                    match Schaefer.Booleanize.solve ~budget:s a b with
                    | Schaefer.Booleanize.Hom h -> Found h
                    | Schaefer.Booleanize.No_hom cert -> Refuted cert
                    | Schaefer.Booleanize.Not_schaefer _ -> Declined) ));
    acyclic a b;
  ]

(* [reshaped]: the part is not the raw source, so its shape may differ
   from the one the head's acyclic guard rejected (a cyclic source can
   fold or split into acyclic parts). *)
let tail ~max_treewidth ~consistency_k ~reshaped a b =
  (if reshaped then [ acyclic a b ] else [])
  @ [
    (* Bounded-treewidth source: dynamic programming (Theorem 5.4).  A
       refutation hands the checker the bags, rooted exactly as the DP
       roots them, so it recomputes the very same bottom-up tables.  The
       guard's decomposition stops as soon as its width passes the cap. *)
    independent Quarter (fun () ->
        Treewidth.Td_solver.decompose ~cap:max_treewidth a
        |> Option.map (fun td ->
               ( Bounded_treewidth (Treewidth.Tree_decomposition.width td),
                 plain (fun s ->
                     match Treewidth.Td_solver.solve_with_decomposition ~budget:s td a b with
                     | Some h -> Found h
                     | None ->
                       let bags =
                         Array.map (List.sort_uniq Int.compare)
                           td.Treewidth.Tree_decomposition.bags
                       in
                       Refuted
                         (or_empty_target a b
                            (Certificate.Dp_empty
                               { bags; parent = Treewidth.Join_eval.rooted td }))) )));
    (* k-consistency, the existential k-pebble game (Theorems 4.7–4.9):
       refutes outright with the game's log of forth failures as a
       Spoiler-win derivation, or prunes soundly — a pair [(x, v)] whose
       singleton configuration left the winning family lies on no
       homomorphism, and the log derives it dead unless it was never a
       partial homomorphism.  Declines when the configuration space
       exceeds the engine's encoding capacity.  The counters come from
       the engine's returned stats, not from telemetry, so attempts do
       not depend on a sink. *)
    chained Quarter (fun () ->
        Some
          ( Consistency_refutation consistency_k,
            fun _ s ->
              match Pebble.Game.run ~budget:s ~k:consistency_k a b with
              | None -> (Declined, [])
              | Some { family; trace; stats = st } ->
                let counters =
                  [
                    ("pebble.configs_ranked", st.configs_ranked);
                    ("pebble.deaths_propagated", st.deaths_propagated);
                    ("pebble.initial_configs", st.initial_configs);
                    ("pebble.removed", st.removed);
                    ("pebble.supports_built", st.supports_built);
                  ]
                in
                if Pebble.Game.mem family [] then
                  ( Pruned
                      { keep = (fun x v -> Pebble.Game.mem family [ (x, v) ]); lemmas = trace },
                    counters )
                else (Refuted (Certificate.Spoiler_win trace), counters) ));
    (* MAC backtracking (NP-complete in general) under the inherited
       pruning, refuting with the tree it explored.  The tree needs the
       restriction's lemmas only when the restriction removed a value
       that arc consistency over the full domains kept. *)
    chained All (fun () ->
        Some
          ( Backtracking,
            fun restriction s ->
              match
                Homomorphism.refute
                  ?restrict:(Option.map (fun r -> r.keep) restriction)
                  ~budget:s a b
              with
              | Ok h -> (Found h, [])
              | Error (tree, restricted) ->
                let lemmas =
                  match restriction with Some r when restricted -> r.lemmas | _ -> []
                in
                (Refuted (Certificate.Search_tree { lemmas; tree }), []) ));
  ]

(* Run one route under budget [s] and close its span with the attempt's
   identity as fields.  Answers the attempt record and, when the route
   settled the instance, the verdict; a [Pruned] step lands in
   [restrict].  Budget exhaustion in the route falls through. *)
let attempt restrict s route (run : run) =
  let sp = Telemetry.begin_span "solver.attempt" in
  let outcome, counters, verdict =
    match run !restrict s with
    | Found h, counters -> (Decided, counters, Some (Sat h))
    | Refuted cert, counters -> (Decided, counters, Some (Unsat cert))
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
           ("route", Wire.Json.String (route_name route));
           ("nodes", Wire.Json.Int nodes);
           ("outcome", Wire.Json.String (outcome_name outcome));
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
    @
    if chain = [] then []
    else
      [
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

let drive ~budget ~threads a b entries =
  if threads <= 1 then fold ~budget entries else race ~budget ~threads a b entries

(* ------------------------------------------------------------------ *)
(* The preprocessing boundary and the tail (DESIGN.md section 16).      *)
(*                                                                      *)
(* Past the head, the source is decomposed into connected components    *)
(* (textually identical ones deduplicated), each component folded and   *)
(* cored by [Preprocess.shrink_source], and each shrunk part solved     *)
(* independently on the tail — sequentially, or raced with              *)
(* [Parallel.Race] under racer budgets when [threads > 1] supplies more *)
(* than one part.  Verdicts conjoin: any part's refutation refutes the  *)
(* whole (wrapped in [Certificate.Via_preprocess] so the trusted        *)
(* checker can replay the shrink), and per-part witnesses reassemble    *)
(* through the fold maps into a witness on the raw source, re-verified  *)
(* here before it is returned.  Budget exhaustion inside the shrink     *)
(* pipeline degrades to the unshrunk instance (the verdict never        *)
(* changes, only the work to reach it), surfaced in the                 *)
(* [preprocess.bailouts] counter of the [Preprocess] attempt record.    *)
(* Without preprocessing the boundary hands the raw source on as the    *)
(* one part.                                                            *)
(* ------------------------------------------------------------------ *)

let decided_by_preprocess ~counters verdict =
  {
    verdict;
    route = Preprocess;
    attempts = [ { route = Preprocess; nodes = 0; outcome = Decided; counters } ];
  }

(* One part on the tail.  With preprocessing, the arc-consistency
   singleton-domain substitution decides [Sat] outright when propagation
   forces a unique certified assignment; otherwise (or when the budget
   is already spent — the table reports exhaustion uniformly) the tail
   entries run. *)
let solve_part ~max_treewidth ~consistency_k ~budget ~threads ~preprocess ~reshaped
    piece b =
  match
    if preprocess then Preprocess.ac_singleton_witness ~budget piece b else None
  with
  | Some h -> decided_by_preprocess ~counters:[ ("preprocess.ac_singleton", 1) ] (Sat h)
  | None | (exception Budget.Exhausted _) ->
    drive ~budget ~threads piece b (tail ~max_treewidth ~consistency_k ~reshaped piece b)

(* The boundary's shortcuts.  A fact over an empty, absent or
   arity-clashing relation refutes outright; this also keeps the
   per-component conjunction sound for nullary facts, which survive
   [Structure.induced] into every part. *)
let shortcut a b =
  match Schaefer.Uniform.empty_relation_refutation a b with
  | Some cert ->
    Some
      (decided_by_preprocess ~counters:[ ("preprocess.empty_relation", 1) ] (Unsat cert))
  | None when Structure.size a = 0 ->
    (* No elements and every nullary fact present in [B] (the shortcut
       above just checked): the empty map is a witness. *)
    Some (decided_by_preprocess ~counters:[ ("preprocess.empty_source", 1) ] (Sat [||]))
  | None -> None

(* The shrink dropped elements or split the source: no part is the raw
   source itself. *)
let reshaped (src : Preprocess.source) =
  let stats = src.Preprocess.stats in
  stats.Preprocess.shrunk_elements < stats.Preprocess.raw_elements
  || stats.Preprocess.components > 1

(* The boundary's shrink, and its attempt record. *)
let shrink ~budget a =
  let before = Budget.spent budget in
  let src =
    Telemetry.with_span "solver.preprocess" (fun () -> Preprocess.shrink_source ~budget a)
  in
  let stats = src.Preprocess.stats in
  let outcome : attempt_outcome = if reshaped src then Pruned else Inapplicable in
  ( src,
    [
      {
        route = Preprocess;
        nodes = Budget.spent budget - before;
        outcome;
        counters = Preprocess.counters stats;
      };
    ] )

let solve_tail ~max_treewidth ~consistency_k ~budget ~threads ~preprocess a b =
  match if preprocess then shortcut a b else None with
  | Some r -> r
  | None ->
    let src, pre_attempts =
      if preprocess then shrink ~budget a else (Preprocess.whole a, [])
    in
    let parts = src.Preprocess.parts in
    let nparts = Array.length parts in
    let reshaped = reshaped src in
    let solve_part ~threads ~budget (p : Preprocess.part) =
      solve_part ~max_treewidth ~consistency_k ~budget ~threads ~preprocess ~reshaped
        p.Preprocess.shrink.Preprocess.structure b
    in
    let results = Array.make nparts None in
    if threads > 1 && nparts > 1 then begin
      (* Parts race: the first refutation raises the shared cancel flag;
         every racer's spend is merged back afterwards. *)
      let cancel = ref false in
      let budgets = Array.init nparts (fun _ -> Budget.racer budget ~cancel) in
      Parallel.Race.run ~threads
        ~tasks:(Array.mapi (fun i p () -> solve_part ~threads:1 ~budget:budgets.(i) p) parts)
        ~consume:(fun { Parallel.Race.index; value = r } ->
          results.(index) <- Some r;
          match r.verdict with Unsat _ -> cancel := true | _ -> ());
      Array.iter (fun s -> Budget.charge budget (Budget.spent s)) budgets
    end
    else
      (try
         Array.iteri
           (fun i p ->
             let r = solve_part ~threads ~budget p in
             results.(i) <- Some r;
             match r.verdict with Unsat _ -> raise Exit | _ -> ())
           parts
       with Exit -> ());
    let attempts =
      pre_attempts
      @ List.concat_map
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
        | _ ->
          (* A part skipped ([None]) after an earlier refutation decided
             the conjunction. *)
          ())
      results;
    (match !refuted with
    | Some (i, cert, route) ->
      finish (Unsat (Preprocess.wrap_certificate src i cert)) route
    | None -> (
      match !unknown with
      | Some (reason, route) -> finish (Unknown (global_reason budget reason)) route
      | None ->
        let witness i =
          match Option.map answer results.(i) with
          | Some (Some h) -> h
          | _ -> assert false (* neither refuted nor unknown *)
        in
        let h = Preprocess.assemble_witness src witness in
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
  let span = Telemetry.begin_span "solver.solve" in
  let head = drive ~budget ~threads a b (head ~booleanize_threshold a b) in
  let r =
    match head.verdict with
    | Sat _ | Unsat _ -> head
    | Unknown _ ->
      let r =
        solve_tail ~max_treewidth ~consistency_k ~budget ~threads ~preprocess a b
      in
      { r with attempts = head.attempts @ r.attempts }
  in
  ignore
    (Telemetry.end_span span
       ~fields:
         (("verdict", Wire.Json.String (verdict_name r.verdict))
         :: ("route", Wire.Json.String (route_name r.route))
         :: (if threads > 1 then [ ("threads", Wire.Json.Int threads) ] else [])));
  r

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

let containment_instance q1 q2 =
  if Cq.Query.arity q1 <> Cq.Query.arity q2 then
    invalid_arg "Solver.solve_containment: head arities differ";
  let d1, _ = Cq.Canonical.database q1 in
  let d2, _ = Cq.Canonical.database q2 in
  (d2, d1)

let solve_containment ?budget ?threads ?preprocess q1 q2 =
  let s, t = containment_instance q1 q2 in
  solve ?budget ?threads ?preprocess s t
