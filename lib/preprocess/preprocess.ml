open Relational

type retraction = {
  structure : Structure.t;
  fold : int array;
  embed : int array;
}

let identity_retraction s =
  let n = Structure.size s in
  { structure = s; fold = Array.init n Fun.id; embed = Array.init n Fun.id }

let is_trivial r = Structure.size r.structure = Array.length r.fold

type stats = {
  raw_elements : int;
  shrunk_elements : int;
  components : int;
  distinct_parts : int;
  folded : int;
  core_dropped : int;
  bailouts : int;
}

let counters s =
  [
    ("preprocess.bailouts", s.bailouts);
    ("preprocess.components", s.components);
    ("preprocess.core_dropped", s.core_dropped);
    ("preprocess.distinct_parts", s.distinct_parts);
    ("preprocess.folded", s.folded);
    ("preprocess.raw_elements", s.raw_elements);
    ("preprocess.shrunk_elements", s.shrunk_elements);
  ]

type part = {
  piece : Structure.t;
  piece_embed : int array;
  shrink : retraction;
  copies : int;
}

type source = {
  parts : part array;
  assign : (int * int) array;
  stats : stats;
}

(* ------------------------------------------------------------------ *)
(* Stage: dominated-element folding.                                    *)
(* ------------------------------------------------------------------ *)

module Int_set = Set.Make (Int)

(* One pass over the input's own indexes: a [live] mask stands for the
   substructure induced on the elements not yet folded, and [into]
   records each fold's absorber.  The highest pending element is tested
   next, against its candidates ascending.  A live element that shares
   no live tuple with a folded [x] keeps exactly its tuples, so if it
   failed before it still fails; only [x]'s live neighbours become
   pending again.  Every non-pending live element is therefore
   unfoldable, and each fold is the one a top-down rescan would pick.
   One budget tick per domination test; on exhaustion the completed
   folds are kept.  The one induced copy is taken at the end, and not at
   all when nothing folded (warm indexes survive). *)
let fold_stage ~budget st =
  let n = Structure.size st in
  let live = Array.make n true and into = Array.init n Fun.id in
  let pending = ref (Int_set.of_list (Structure.universe st)) in
  let folds = ref [] in
  let requeue_neighbours x =
    List.iter
      (fun (name, arity) ->
        let ix = Structure.index st name in
        for p = 0 to arity - 1 do
          Array.iter
            (fun t ->
              if Array.for_all (Array.get live) t then
                Array.iter
                  (fun e -> if e <> x then pending := Int_set.add e !pending)
                  t)
            (Relation.Index.matching ix ~pos:p ~value:x)
        done)
      (Vocabulary.symbols (Structure.vocabulary st))
  in
  let rec loop () =
    match Int_set.max_elt_opt !pending with
    | None -> ()
    | Some x ->
      pending := Int_set.remove x !pending;
      (match
         List.find_opt
           (fun y ->
             Budget.tick budget;
             Homomorphism.folds_onto ~live st x y)
           (Homomorphism.fold_candidates ~live st x)
       with
      | Some y ->
        requeue_neighbours x;
        live.(x) <- false;
        into.(x) <- y;
        folds := x :: !folds
      | None -> ());
      loop ()
  in
  let bailed =
    try
      loop ();
      false
    with Budget.Exhausted _ -> true
  in
  let folded = List.length !folds in
  if folded = 0 then (identity_retraction st, 0, bailed)
  else begin
    (* Newest fold first: each absorber is live or already resolved. *)
    List.iter (fun x -> into.(x) <- into.(into.(x))) !folds;
    let kept = List.filter (Array.get live) (Structure.universe st) in
    let renum = Array.make n (-1) in
    List.iteri (fun i e -> renum.(e) <- i) kept;
    ( {
        structure = Structure.induced st kept;
        fold = Array.map (Array.get renum) into;
        embed = Array.of_list kept;
      },
      folded,
      bailed )
  end

(* ------------------------------------------------------------------ *)
(* Stage: core computation by retraction search.                        *)
(* ------------------------------------------------------------------ *)

(* Greedy element drop: find an endomorphism avoiding some element,
   restrict to its image, repeat.  The searches that succeed (actual
   shrinks) come back fast; the exhaustive failing sweep that would
   prove minimality is where the node cap bites, so already-minimal
   instances bail after a bounded effort instead of an exponential
   proof.  The last completed restriction is kept on exhaustion.

   Each round builds one self-context and establishes it once: its
   Theta(norm) setup is metered against the cap as [1 + norm/4] ticks,
   so the number of rounds scales with the budget rather than with the
   universe size.  When every domain is then a singleton the identity is
   the only endomorphism, so the structure is rigid, hence a core, and
   the stage stops.  Otherwise an attempt to avoid [v] costs one tick:
   push, remove [v] from every domain, propagate, search, pop. *)
let core_stage ~budget st0 =
  let id = Array.init (Structure.size st0) Fun.id in
  let best = ref (st0, id, id, 0) in
  let rec shrink st fold embed dropped =
    best := (st, fold, embed, dropped);
    let n = Structure.size st in
    for _ = 1 to 1 + (Structure.norm st / 4) do
      Budget.tick budget
    done;
    let ctx = Arc_consistency.create ~budget st st in
    (* The identity is an endomorphism, so this cannot wipe out. *)
    ignore (Arc_consistency.establish ctx);
    let avoiding v =
      Budget.tick budget;
      Arc_consistency.push ctx;
      let found = ref None in
      if
        List.for_all
          (fun x -> Arc_consistency.remove_value ctx x v)
          (Structure.universe st)
        && Arc_consistency.propagate ctx
      then
        Homomorphism.search_context ~budget ctx ~on_solution:(fun h ->
            found := Some (Array.copy h);
            false);
      Arc_consistency.pop ctx;
      !found
    in
    let rec attempt v =
      if v >= n then None
      else match avoiding v with Some h -> Some h | None -> attempt (v + 1)
    in
    match if Arc_consistency.all_singleton ctx then None else attempt 0 with
    | None -> ()
    | Some h ->
      let img = Homomorphism.image h in
      let renum = Hashtbl.create (List.length img) in
      List.iteri (fun i e -> Hashtbl.add renum e i) img;
      let smaller = Structure.induced st img in
      let step_fold = Array.map (fun v -> Hashtbl.find renum v) h in
      let step_embed = Array.of_list img in
      shrink smaller
        (Homomorphism.compose step_fold fold)
        (Homomorphism.compose embed step_embed)
        (dropped + (n - List.length img))
  in
  let bailed =
    try
      shrink st0 id id 0;
      false
    with Budget.Exhausted _ -> true
  in
  let st, fold, embed, dropped = !best in
  (st, fold, embed, dropped, bailed)

(* The greedy endomorphisms need not fix their image pointwise, so the
   composed fold can permute the shrunk universe relative to embed.
   When [g = fold . embed] is bijective — always, once the search ran to
   completion, since every endomorphism of a core is an automorphism —
   compose the fold with [g]'s inverse (the inverse of a bijective
   endomorphism of a finite structure is again a homomorphism), giving
   [fold . embed = id] on the nose.  After a bailout [g] may be
   non-bijective; the maps are still homomorphisms both ways, which is
   all the certificate replay needs. *)
let normalize_retraction r =
  let k = Array.length r.embed in
  let g = Array.map (fun e -> r.fold.(e)) r.embed in
  let seen = Array.make (max k 1) false in
  let bijective =
    Array.for_all
      (fun v ->
        if v < 0 || v >= k || seen.(v) then false
        else begin
          seen.(v) <- true;
          true
        end)
      g
  in
  if not bijective then r
  else begin
    let inv = Array.make k 0 in
    Array.iteri (fun i v -> inv.(v) <- i) g;
    { r with fold = Array.map (fun v -> inv.(v)) r.fold }
  end

(* ------------------------------------------------------------------ *)
(* Combined per-structure shrink (fold passes, then core search).       *)
(* ------------------------------------------------------------------ *)

type shrink_info = { i_folded : int; i_core_dropped : int; i_bailed : bool }

let default_core_nodes st = max 64 (Structure.norm st / 4)

let shrink_structure ?(budget = Budget.unlimited) ?core_nodes st =
  if Structure.size st = 0 then
    (identity_retraction st, { i_folded = 0; i_core_dropped = 0; i_bailed = false })
  else
    let cap =
      match core_nodes with Some c -> c | None -> default_core_nodes st
    in
    let r1, folded, bail1 = fold_stage ~budget st in
    let core_budget = Budget.slice budget ~max_nodes:cap () in
    let st2, fold2, embed2, dropped, bail2 =
      core_stage ~budget:core_budget r1.structure
    in
    let r =
      normalize_retraction
        {
          structure = st2;
          fold = Homomorphism.compose fold2 r1.fold;
          embed = Homomorphism.compose r1.embed embed2;
        }
    in
    let bailed = bail1 || bail2 in
    if bailed then Telemetry.count "preprocess.bailout" 1;
    (r, { i_folded = folded; i_core_dropped = dropped; i_bailed = bailed })

let target_core ?budget ?core_nodes b =
  fst (shrink_structure ?budget ?core_nodes b)

(* ------------------------------------------------------------------ *)
(* Connected components (Gaifman graph, via union-find over tuples).    *)
(* ------------------------------------------------------------------ *)

let component_elements a =
  let n = Structure.size a in
  let parent = Array.init n Fun.id in
  let rec find x =
    if parent.(x) = x then x
    else begin
      let r = find parent.(x) in
      parent.(x) <- r;
      r
    end
  in
  let union x y =
    let rx = find x and ry = find y in
    if rx <> ry then parent.(max rx ry) <- min rx ry
  in
  Structure.fold_tuples
    (fun _ t () ->
      for i = 1 to Array.length t - 1 do
        union t.(0) t.(i)
      done)
    a ();
  let groups = Hashtbl.create 16 in
  for e = n - 1 downto 0 do
    let r = find e in
    Hashtbl.replace groups r
      (e :: Option.value (Hashtbl.find_opt groups r) ~default:[])
  done;
  (* Each class's root is its minimum element, so sorting roots orders
     components by first element, and the downward fill above left each
     member list ascending. *)
  let roots = List.sort compare (Hashtbl.fold (fun r _ acc -> r :: acc) groups []) in
  List.map (fun r -> Hashtbl.find groups r) roots

let stats_of ~raw_elements ~components parts =
  {
    raw_elements;
    shrunk_elements =
      Array.fold_left (fun acc p -> acc + Structure.size p.shrink.structure) 0 parts;
    components;
    distinct_parts = Array.length parts;
    folded = 0;
    core_dropped = 0;
    bailouts = 0;
  }

let whole a =
  let n = Structure.size a in
  let parts =
    [| { piece = a; piece_embed = Array.init n Fun.id; shrink = identity_retraction a; copies = 1 } |]
  in
  { parts; assign = Array.init n (fun e -> (0, e)); stats = stats_of ~raw_elements:n ~components:1 parts }

let components a =
  let n = Structure.size a in
  match component_elements a with
  | [ elems ] when List.length elems = n ->
    (* A single component spanning the whole universe IS the input: skip
       the induced copy (and its canonical print) so the downstream solve
       runs on the original structure, warm lazy indexes and all. *)
    whole a
  | comps ->
    let by_text = Hashtbl.create 8 and reps = ref [] in
    let assign = Array.make n (0, 0) in
    List.iter
      (fun elems ->
        let piece = Structure.induced a elems in
        let key = Structure_text.print piece in
        let pi =
          match Hashtbl.find_opt by_text key with
          | Some (pi, copies) ->
            incr copies;
            pi
          | None ->
            let pi = Hashtbl.length by_text and copies = ref 1 in
            Hashtbl.add by_text key (pi, copies);
            reps := (elems, piece, copies) :: !reps;
            pi
        in
        List.iteri (fun local e -> assign.(e) <- (pi, local)) elems)
      comps;
    let parts =
      Array.of_list
        (List.rev_map
           (fun (elems, piece, copies) ->
             {
               piece;
               piece_embed = Array.of_list elems;
               shrink = identity_retraction piece;
               copies = !copies;
             })
           !reps)
    in
    { parts; assign; stats = stats_of ~raw_elements:n ~components:(List.length comps) parts }

let shrink_parts ?(budget = Budget.unlimited) ?core_nodes src =
  let shrunk = Array.map (fun p -> shrink_structure ~budget ?core_nodes p.piece) src.parts in
  let parts = Array.map2 (fun p (shrink, _) -> { p with shrink }) src.parts shrunk in
  let sum f = Array.fold_left (fun acc (_, info) -> acc + f info) 0 shrunk in
  let stats =
    {
      (stats_of ~raw_elements:src.stats.raw_elements ~components:src.stats.components parts)
      with
      folded = sum (fun i -> i.i_folded);
      core_dropped = sum (fun i -> i.i_core_dropped);
      bailouts = sum (fun i -> Bool.to_int i.i_bailed);
    }
  in
  if stats.shrunk_elements < stats.raw_elements then
    Telemetry.count "preprocess.elements_dropped"
      (stats.raw_elements - stats.shrunk_elements);
  { src with parts; stats }

let shrink_source ?budget ?core_nodes a =
  shrink_parts ?budget ?core_nodes (components a)

(* ------------------------------------------------------------------ *)
(* Arc-consistency singleton-domain substitution.                       *)
(* ------------------------------------------------------------------ *)

let ac_singleton_witness ?(budget = Budget.unlimited) a b =
  Budget.check budget;
  if Structure.size a = 0 then
    if Homomorphism.is_homomorphism a b [||] then Some [||] else None
  else
    let ctx = Arc_consistency.create ~budget a b in
    if Arc_consistency.establish ctx && Arc_consistency.all_singleton ctx then begin
      let h = Arc_consistency.solution ctx in
      if Homomorphism.is_homomorphism a b h then Some h else None
    end
    else None

(* ------------------------------------------------------------------ *)
(* Certificate plumbing.                                                *)
(* ------------------------------------------------------------------ *)

let certificate_steps src i =
  let p = src.parts.(i) in
  let restriction =
    if Structure.size p.piece = src.stats.raw_elements then []
    else [ { Certificate.shrunk = p.piece; embed = p.piece_embed; fold = None } ]
  in
  let retraction_step =
    if is_trivial p.shrink then []
    else
      [
        {
          Certificate.shrunk = p.shrink.structure;
          embed = p.shrink.embed;
          fold = Some p.shrink.fold;
        };
      ]
  in
  restriction @ retraction_step

let wrap_certificate src i inner =
  match certificate_steps src i with
  | [] -> inner
  | steps -> Certificate.Via_preprocess { source = steps; target = None; inner }

let target_step r =
  if is_trivial r then None
  else
    Some
      {
        Certificate.shrunk = r.structure;
        embed = r.embed;
        fold = Some r.fold;
      }

let assemble_witness src wit =
  Array.map
    (fun (pi, local) ->
      let p = src.parts.(pi) in
      (wit pi).(p.shrink.fold.(local)))
    src.assign
