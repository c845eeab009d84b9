open Relational

type issue = { seed : int; what : string }

type report = { instances : int; checked : int; skipped : int; issues : issue list }

(* ------------------------------------------------------------------ *)
(* Deterministic instance generation (independent of the generators'    *)
(* own seeding so a seed denotes the same instance forever).            *)
(* ------------------------------------------------------------------ *)

let rng seed =
  let state = ref (((seed * 2654435761) lxor 0x5bd1e995) land 0x3FFFFFFF) in
  fun bound ->
    state := ((!state * 1103515245) + 12345) land 0x3FFFFFFF;
    1 + (!state mod bound)

(* One homomorphism instance per seed, rotating through the instance
   families that exercise the dispatcher's routes. *)
let instance seed =
  let r = rng seed in
  match seed mod 5 with
  | 0 ->
    (* Arbitrary small vocabulary and structures: the backtracking and
       treewidth territory. *)
    let vocab =
      Vocabulary.create
        (List.init (r 2) (fun i -> (Printf.sprintf "R%d" i, r 3)))
    in
    let a = Workloads.random_structure ~seed:(seed + 1) vocab ~size:(r 4) ~tuples:(r 6) in
    let b = Workloads.random_structure ~seed:(seed + 2) vocab ~size:(r 3) ~tuples:(r 8) in
    (a, b)
  | 1 ->
    (* Boolean Schaefer target: the Theorem 3.3/3.4 territory. *)
    let cls =
      List.nth Schaefer.Classify.all_classes (r 6 - 1)
    in
    let b = Workloads.random_schaefer_target ~seed:(seed + 1) cls ~arities:[ r 3; r 3 ] in
    let a =
      Workloads.random_structure ~seed:(seed + 2) (Structure.vocabulary b)
        ~size:(1 + r 4) ~tuples:(r 6)
    in
    (a, b)
  | 2 ->
    (* Undirected-graph target: the Hell–Nešetřil territory. *)
    let a = Workloads.erdos_renyi ~seed:(seed + 1) ~n:(2 + r 5) ~p:0.45 in
    let b =
      match r 4 with
      | 1 -> Workloads.k2
      | 2 -> Workloads.clique (1 + r 3)
      | 3 -> Workloads.undirected_cycle (3 + r 4)
      | _ -> Workloads.complete_bipartite (r 2) (r 2)
    in
    (a, b)
  | 3 ->
    (* Acyclic source: the Yannakakis territory. *)
    let a = Workloads.path (1 + r 5) in
    let b = Workloads.erdos_renyi ~seed:(seed + 1) ~n:(1 + r 4) ~p:0.5 in
    (a, b)
  | _ ->
    (* Bounded-treewidth source: the Theorem 5.4 territory. *)
    let a = Workloads.random_partial_ktree ~seed:(seed + 1) ~n:(3 + r 5) ~k:2 ~keep:0.7 in
    let b = Workloads.clique (1 + r 3) in
    (a, b)

(* ------------------------------------------------------------------ *)
(* Forcing every applicable route to answer the same instance.          *)
(* ------------------------------------------------------------------ *)

type claim = Yes | No | Skip

let show = function Yes -> "sat" | No -> "unsat" | Skip -> "skip"

(* Run one route, degrading to [Skip] on budget exhaustion or
   inapplicability; any other exception is the caller's to report. *)
let claim_of f = match f () with Some true -> Yes | Some false -> No | None -> Skip

let routes ~budget a b =
  let guard name f =
    ( name,
      match f () with
      | c -> c
      | exception Budget.Exhausted _ -> Skip
      | exception Invalid_argument _ -> Skip )
  in
  [
    guard "mac-backtracking" (fun () ->
        claim_of (fun () ->
            match Homomorphism.decide ~budget:(budget ()) a b with
            | Budget.Sat _ -> Some true
            | Budget.Unsat -> Some false
            | Budget.Unknown _ -> None));
    guard "schaefer-formula" (fun () ->
        claim_of (fun () ->
            match Schaefer.Uniform.solve ~budget:(budget ()) a b with
            | Schaefer.Uniform.Hom _ -> Some true
            | Schaefer.Uniform.No_hom _ -> Some false
            | Schaefer.Uniform.Not_applicable _ -> None));
    guard "schaefer-direct" (fun () ->
        claim_of (fun () ->
            match Oracle.Schaefer_direct.solve ~budget:(budget ()) a b with
            | Oracle.Schaefer_direct.Hom _ -> Some true
            | Oracle.Schaefer_direct.No_hom -> Some false
            | Oracle.Schaefer_direct.Not_applicable _ -> None));
    guard "booleanized" (fun () ->
        claim_of (fun () ->
            if Structure.size b < 1 || Structure.size b > 4 then None
            else
              match Schaefer.Booleanize.solve a b with
              | Schaefer.Booleanize.Hom _ -> Some true
              | Schaefer.Booleanize.No_hom _ -> Some false
              | Schaefer.Booleanize.Not_schaefer _ -> None));
    guard "hell-nesetril" (fun () ->
        claim_of (fun () ->
            if
              Core.Graph_dichotomy.is_undirected_graph b
              && Vocabulary.equal (Structure.vocabulary a) (Structure.vocabulary b)
              && Core.Graph_dichotomy.complexity b = Core.Graph_dichotomy.Polynomial
            then Some (Result.is_ok (Core.Graph_dichotomy.solve a b))
            else None));
    guard "acyclic-yannakakis" (fun () ->
        claim_of (fun () ->
            if Treewidth.Hypergraph.is_acyclic a then
              Some (Treewidth.Hypergraph.solve_acyclic a b <> None)
            else None));
    guard "treewidth-dp" (fun () ->
        claim_of (fun () ->
            Some (Treewidth.Td_solver.solve ~budget:(budget ()) a b <> None)));
    guard "2-consistency" (fun () ->
        claim_of (fun () ->
            (* One-sided: a Spoiler win refutes, a Duplicator win decides
               nothing. *)
            if Pebble.Game.spoiler_wins ~budget:(budget ()) ~k:2 a b then Some false
            else None));
  ]

(* Differential check of AC-4 against the rescan-and-revise oracle: the
   arc-consistent closure is unique, so they must agree on the establish
   verdict and every domain, and on the domains after an assign — the
   oracle's closure with [x] fixed to [v] — while pop must restore the
   establish snapshot. *)
let ac_differential note a b =
  let ctx = Arc_consistency.create a b in
  let n = Structure.size a in
  let domains () = Array.init n (Arc_consistency.dom_values ctx) in
  let compare_with stage ours oracle =
    match (ours, oracle) with
    | false, None -> ()
    | true, Some doms ->
      if domains () <> doms then note ("ac-differential: domains differ " ^ stage)
    | _ ->
      note
        (Printf.sprintf "ac-differential: %s disagrees (ac4 %b, oracle %b)" stage ours
           (oracle <> None))
  in
  let established = Arc_consistency.establish ctx in
  compare_with "after establish" established
    (Oracle.Arc.closure ~restrict:(fun _ _ -> true) a b);
  if established then begin
    let snapshot = domains () in
    let branch = ref None in
    for x = n - 1 downto 0 do
      if Arc_consistency.dom_size ctx x > 1 then branch := Some x
    done;
    match !branch with
    | None -> ()
    | Some x ->
      let v = List.hd (Arc_consistency.dom_values ctx x) in
      Arc_consistency.push ctx;
      compare_with "after assign" (Arc_consistency.assign ctx x v)
        (Oracle.Arc.closure ~restrict:(fun y w -> y <> x || w = v) a b);
      Arc_consistency.pop ctx;
      if domains () <> snapshot then
        note "ac-differential: ac4 pop did not restore the establish domains"
  end

(* Differential check of the pebble game against the list-based oracle:
   both compute the unique greatest fixpoint, so the families must be
   identical, [mem] must hold on every oracle configuration, [respond]
   must answer from every one with fewer than k pebbles, and on a Spoiler
   win the engine's trace must replay through the trusted checker. *)
let pebble_differential note ~budget a b =
  let k = 2 in
  match
    ( Pebble.Game.run ~budget:(budget ()) ~k a b,
      Oracle.Pebble.family ~budget:(budget ()) ~k a b )
  with
  | Some { family; trace; _ }, (oracle, _) ->
    let ours = List.sort compare (Pebble.Game.configs family) in
    let oracle = List.sort compare oracle in
    if ours <> oracle then
      note
        (Printf.sprintf
           "pebble-differential: families differ (engine %d, oracle %d configs)"
           (List.length ours) (List.length oracle));
    if not (List.for_all (Pebble.Game.mem family) oracle) then
      note "pebble-differential: mem rejects an oracle configuration";
    let stranded config =
      List.length config < k
      && List.exists
           (fun x ->
             (not (List.mem_assoc x config))
             && Pebble.Game.respond family config x = None)
           (Structure.universe a)
    in
    if List.exists stranded oracle then
      note "pebble-differential: respond has no answer from an oracle position";
    if ours = [] && Structure.size a > 0 then begin
      if not (Certificate.check a b (Certificate.Spoiler_win trace)) then
        note "pebble-differential: Spoiler trace rejected"
    end
  | None, _ -> ()
  | exception Budget.Exhausted _ -> ()

(* The full portfolio, with its verdict checked against its own
   certificate by the trusted checker. *)
let portfolio ~budget ?booleanize_threshold ?max_treewidth ?consistency_k
    ?threads ?preprocess name a b =
  let r =
    Core.Solver.solve ?booleanize_threshold ?max_treewidth ?consistency_k ?threads
      ?preprocess ~budget:(budget ()) a b
  in
  match r.Core.Solver.verdict with
  | Core.Solver.Sat h ->
    if Certificate.check a b (Certificate.Witness h) then (name, Yes, None)
    else
      ( name,
        Yes,
        Some
          (Printf.sprintf "%s: witness of route %s rejected by the checker" name
             (Core.Solver.route_name r.Core.Solver.route)) )
  | Core.Solver.Unsat c ->
    if Certificate.check a b c then (name, No, None)
    else
      ( name,
        No,
        Some
          (Printf.sprintf "%s: %s certificate of route %s rejected by the checker"
             name (Certificate.describe c)
             (Core.Solver.route_name r.Core.Solver.route)) )
  | Core.Solver.Unknown _ -> (name, Skip, None)

let check_instance ~max_nodes ?(threads = 1) seed a b =
  let budget () = Budget.create ~max_nodes () in
  let issues = ref [] in
  let claims = ref [] in
  let note what = issues := { seed; what } :: !issues in
  let push name claim = claims := (name, claim) :: !claims in
  let run_portfolio name ?booleanize_threshold ?max_treewidth ?consistency_k
      ?threads ?preprocess () =
    match
      portfolio ~budget ?booleanize_threshold ?max_treewidth ?consistency_k
        ?threads ?preprocess name a b
    with
    | name, claim, problem ->
      push name claim;
      Option.iter note problem
    | exception Budget.Exhausted _ -> ()
    | exception Core.Error.Error e ->
      note (Printf.sprintf "%s: %s" name (Core.Error.to_string e))
  in
  (* The portfolio under its default policy, then steered away from its
     preferred routes so the later routes must answer (and certify) too. *)
  run_portfolio "portfolio" ();
  (* The preprocess differential: the same portfolio with the shrinking
     pipeline disabled must agree with the preprocessed default above
     (whose via-preprocess certificates the checker already validated). *)
  run_portfolio "portfolio-raw" ~preprocess:false ();
  (* The racing portfolio joins the agreement check: its verdict and
     certificates are held to the same standard as every sequential
     route's. *)
  if threads > 1 then run_portfolio "portfolio-race" ~threads ();
  run_portfolio "portfolio-no-schaefer" ~booleanize_threshold:0 ();
  run_portfolio "portfolio-backtracking" ~booleanize_threshold:0 ~max_treewidth:0
    ~consistency_k:1 ();
  List.iter
    (fun (name, claim) -> push name claim)
    (routes ~budget a b);
  ac_differential note a b;
  pebble_differential note ~budget a b;
  (* Cross-route agreement: no Yes may meet a No. *)
  let yes = List.filter (fun (_, c) -> c = Yes) !claims in
  let no = List.filter (fun (_, c) -> c = No) !claims in
  (match (yes, no) with
  | (ny, _) :: _, (nn, _) :: _ ->
    note
      (Printf.sprintf "disagreement: %s says %s, %s says %s" ny (show Yes) nn
         (show No))
  | _ -> ());
  let decided = List.exists (fun (_, c) -> c <> Skip) !claims in
  (!issues, decided)

(* Containment instances: certify the Chandra–Merlin reduction end to
   end. *)
let containment_check ~max_nodes ?(threads = 1) seed =
  let r = rng (seed + 17) in
  let predicates = [ ("E", 2); ("P", r 2) ] in
  let q1 =
    Workloads.random_query ~seed:(seed + 3) ~predicates ~variables:(1 + r 3)
      ~atoms:(r 4)
  in
  let q2 =
    Workloads.random_query ~seed:(seed + 4) ~predicates ~variables:(1 + r 3)
      ~atoms:(r 4)
  in
  let budget = Budget.create ~max_nodes () in
  match Core.Solver.solve_containment ~budget ~threads q1 q2 with
  | r -> (
    let s, t = Core.Solver.containment_instance q1 q2 in
    match Core.Solver.certificate r with
    | None -> ([], false)
    | Some c ->
      if Certificate.check s t c then ([], true)
      else
        ( [
            {
              seed;
              what =
                Printf.sprintf
                  "containment: %s certificate rejected against the canonical \
                   pair"
                  (Certificate.describe c);
            };
          ],
          true ))
  | exception Budget.Exhausted _ -> ([], false)
  | exception Core.Error.Error e ->
    ([ { seed; what = "containment: " ^ Core.Error.to_string e } ], false)

let run ?(max_nodes = 50_000) ?(count = 500) ?(seed = 0) ?(threads = 1) () =
  Telemetry.with_span "selfcheck.run" @@ fun () ->
  let instances = ref 0 and checked = ref 0 and skipped = ref 0 in
  let issues = ref [] in
  for i = 0 to count - 1 do
    let s = seed + i in
    incr instances;
    Telemetry.count "selfcheck.instances" 1;
    let found, decided =
      match
        if s mod 7 = 6 then containment_check ~max_nodes ~threads s
        else
          let a, b = instance s in
          check_instance ~max_nodes ~threads s a b
      with
      | r -> r
      | exception e ->
        ( [ { seed = s; what = "unexpected exception: " ^ Printexc.to_string e } ],
          false )
    in
    Telemetry.count (if decided then "selfcheck.decided" else "selfcheck.skipped") 1;
    Telemetry.count "selfcheck.issues" (List.length found);
    if decided then incr checked else incr skipped;
    issues := !issues @ found
  done;
  { instances = !instances; checked = !checked; skipped = !skipped; issues = !issues }
