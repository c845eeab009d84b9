type mapping = int array

type stats = { nodes : int }

exception Count_overflow

(* Homomorphism counts grow like |B|^|A| and blow through OCaml's 63-bit
   native int long before the structures look big; every counting path in
   the repo goes through these checked primitives so an overflow surfaces
   as a typed failure instead of a silently wrapped total. *)
let checked_add a b =
  let s = a + b in
  if (a >= 0 && b >= 0 && s < 0) || (a < 0 && b < 0 && s >= 0) then
    raise Count_overflow;
  s

let checked_mul a b =
  if a = 0 || b = 0 then 0
  else
    let p = a * b in
    if p / b <> a then raise Count_overflow;
    p

let checked_pow base exp =
  if exp < 0 then invalid_arg "Homomorphism.checked_pow: negative exponent";
  let acc = ref 1 in
  for _ = 1 to exp do
    acc := checked_mul !acc base
  done;
  !acc

let is_homomorphism a b (h : mapping) =
  Array.length h = Structure.size a
  && Array.for_all (fun v -> v >= 0 && v < Structure.size b) h
  &&
  let ok = ref true in
  (* O(1) expected membership per atom via B's cached relation indexes. *)
  Structure.iter_tuples
    (fun name t ->
      if !ok then
        let image = Array.map (fun x -> h.(x)) t in
        let holds =
          match Structure.index b name with
          | ix -> Relation.Index.mem ix image
          | exception Not_found -> false
        in
        if not holds then ok := false)
    a;
  !ok

(* A nullary fact [P()] of [a] holds under every mapping or under none:
   it needs [P()] in [b].  Arc consistency never sees arity-0 atoms, so
   every engine that shortcuts or propagates checks them here first. *)
let nullary_facts_hold a b =
  List.for_all
    (fun (name, arity) ->
      arity > 0
      || Relation.is_empty (Structure.relation a name)
      ||
      match Structure.relation b name with
      | r -> Relation.mem r [||]
      | exception Not_found -> false)
    (Vocabulary.symbols (Structure.vocabulary a))

(* Generic MAC backtracking search.  [on_solution] receives each solution and
   returns [true] to continue enumerating.  [budget] is ticked once per
   search-tree node and may abort the search by raising
   [Budget.Exhausted]. *)
let search ?(ordering = `Mrv) ?(restrict = fun _ _ -> true)
    ?(budget = Budget.unlimited) ?pool a b ~on_solution =
  let n = Structure.size a and m = Structure.size b in
  let nodes = ref 0 in
  Budget.check budget;
  if not (nullary_facts_hold a b) then !nodes
  else if n = 0 then begin
    ignore (on_solution [||]);
    !nodes
  end
  else if m = 0 then !nodes
  else begin
    let ctx = Arc_consistency.create a b in
    let alive = ref true in
    for x = 0 to n - 1 do
      for v = 0 to m - 1 do
        if !alive && not (restrict x v) then
          if not (Arc_consistency.remove_value ctx x v) then alive := false
      done
    done;
    (* Only the root establish is sharded: the per-assignment propagations
       during search are far too fine-grained to win back a barrier. *)
    if !alive && Arc_consistency.establish ?pool ctx then begin
      let decided = Array.make n false in
      (* Variable choice: minimum-remaining-values, or plain input order
         (kept for the ablation benchmarks). *)
      let pick () =
        match ordering with
        | `Input ->
          let first = ref (-1) in
          for x = n - 1 downto 0 do
            if not decided.(x) then first := x
          done;
          !first
        | `Mrv ->
          let best = ref (-1) and best_size = ref max_int in
          for x = 0 to n - 1 do
            if not decided.(x) && Arc_consistency.dom_size ctx x < !best_size then begin
              best := x;
              best_size := Arc_consistency.dom_size ctx x
            end
          done;
          !best
      in
      let rec solve () =
        let x = pick () in
        if x < 0 then begin
          let h = Arc_consistency.solution ctx in
          (* MAC with all-singleton domains implies consistency; keep the
             explicit check as a safety net. *)
          assert (is_homomorphism a b h);
          on_solution h
        end
        else begin
          decided.(x) <- true;
          let continue_ = ref true in
          List.iter
            (fun v ->
              if !continue_ && Arc_consistency.dom_mem ctx x v then begin
                incr nodes;
                Budget.tick budget;
                Arc_consistency.push ctx;
                if Arc_consistency.assign ctx x v then
                  if not (solve ()) then continue_ := false;
                Arc_consistency.pop ctx
              end)
            (Arc_consistency.dom_values ctx x);
          decided.(x) <- false;
          !continue_
        end
      in
      ignore (solve ())
    end;
    !nodes
  end

let find_with_stats ?ordering ?restrict ?budget ?pool a b =
  let result = ref None in
  let nodes =
    search ?ordering ?restrict ?budget ?pool a b ~on_solution:(fun h ->
        result := Some (Array.copy h);
        false)
  in
  (!result, { nodes })

let find ?ordering ?restrict ?budget ?pool a b =
  fst (find_with_stats ?ordering ?restrict ?budget ?pool a b)

let decide ?ordering ?restrict ?budget ?pool a b =
  match find ?ordering ?restrict ?budget ?pool a b with
  | Some h -> Budget.Sat h
  | None -> Budget.Unsat
  | exception Budget.Exhausted reason -> Budget.Unknown reason

let exists a b = find a b <> None

(* Pull-based inversion of the push-style [search]: the producer runs under
   an effect handler and performing [Yield] suspends it, handing one
   solution (already copied) to the consumer as a [Seq.Cons] whose tail
   resumes the continuation.  The resulting sequence is ephemeral — the
   continuations are one-shot, so force each node at most once.  An
   abandoned (never fully forced) sequence simply drops its suspended
   continuation on the heap; nothing in [search] holds external
   resources, so that is safe.  [Budget.Exhausted] raised inside the
   producer propagates to whichever [Seq] node the consumer is forcing. *)
type _ Effect.t += Yield : mapping -> unit Effect.t

let generator (produce : yield:(mapping -> unit) -> unit) : mapping Seq.t =
  let open Effect.Deep in
  fun () ->
    match_with
      (fun () ->
        produce ~yield:(fun h -> Effect.perform (Yield h));
        Seq.Nil)
      ()
      {
        retc = Fun.id;
        exnc = raise;
        effc =
          (fun (type a) (eff : a Effect.t) ->
            match eff with
            | Yield h ->
              Some
                (fun (k : (a, _) continuation) ->
                  Seq.Cons (h, fun () -> continue k ()))
            | _ -> None);
      }

let search_seq ?ordering ?restrict ?budget ?pool a b =
  generator (fun ~yield ->
      ignore
        (search ?ordering ?restrict ?budget ?pool a b ~on_solution:(fun h ->
             yield (Array.copy h);
             true)))

let enumerate ?limit ?budget a b =
  let seq = search_seq ?budget a b in
  let seq = match limit with Some l -> Seq.take l seq | None -> seq in
  List.of_seq seq

let count ?budget a b =
  let c = ref 0 in
  ignore
    (search ?budget a b ~on_solution:(fun _ ->
         c := checked_add !c 1;
         true));
  !c

let is_injective (h : mapping) =
  let seen = Hashtbl.create (Array.length h) in
  Array.for_all
    (fun v ->
      if Hashtbl.mem seen v then false
      else begin
        Hashtbl.add seen v ();
        true
      end)
    h

let is_surjective ~target_size (h : mapping) =
  let hit = Array.make (max target_size 1) false in
  Array.iter (fun v -> hit.(v) <- true) h;
  let ok = ref true in
  for v = 0 to target_size - 1 do
    if not hit.(v) then ok := false
  done;
  !ok

let image (h : mapping) = Tuple.elements h

let compose (g : mapping) (h : mapping) = Array.map (fun v -> g.(v)) h

let identity n = Array.init n Fun.id

let hom_equivalent a b = exists a b && exists b a

(* Substituting [y] for [x] everywhere in [t].  Fresh array only when [x]
   actually occurs, which in [folds_onto] it always does. *)
let substitute t ~x ~y = Array.map (fun e -> if e = x then y else e) t

let folds_onto a x y =
  x <> y
  && List.for_all
       (fun (name, arity) ->
         let ix = Structure.index a name in
         let ok = ref true in
         (* Every tuple through [x] appears in the position-[p] bucket for
            each position [p] it occupies; checking only the first
            occurrence visits each such tuple exactly once. *)
         for p = 0 to arity - 1 do
           if !ok then
             Array.iter
               (fun t ->
                 let first = ref (-1) in
                 Array.iteri
                   (fun i e -> if !first < 0 && e = x then first := i)
                   t;
                 if
                   !ok && !first = p
                   && not (Relation.Index.mem ix (substitute t ~x ~y))
                 then ok := false)
               (Relation.Index.matching ix ~pos:p ~value:x)
         done;
         !ok)
       (Vocabulary.symbols (Structure.vocabulary a))

let fold_candidates a x =
  let n = Structure.size a in
  (* Find one tuple through [x] (any relation, any position). *)
  let anchor = ref None in
  List.iter
    (fun (name, arity) ->
      if !anchor = None then
        let ix = Structure.index a name in
        let p = ref 0 in
        while !anchor = None && !p < arity do
          let bucket = Relation.Index.matching ix ~pos:!p ~value:x in
          if Array.length bucket > 0 then anchor := Some (ix, bucket.(0));
          incr p
        done)
    (Vocabulary.symbols (Structure.vocabulary a));
  match !anchor with
  | None ->
    (* Isolated element: folding it onto anything preserves all tuples. *)
    List.filter (fun y -> y <> x) (List.init n Fun.id)
  | Some (ix, t) ->
    (* A viable [y] must complete the pattern [t[x:=y]] in this relation.
       Anchor the index on a non-[x] coordinate when one exists; an all-[x]
       tuple (self-loop) forces a scan of that relation only. *)
    let q = ref (-1) in
    Array.iteri (fun i e -> if !q < 0 && e <> x then q := i) t;
    let pool =
      if !q >= 0 then Relation.Index.matching ix ~pos:!q ~value:t.(!q)
      else Relation.Index.tuples ix
    in
    let cands = Hashtbl.create 8 in
    Array.iter
      (fun t' ->
        (* [t'] must agree with [t] off the [x]-positions and carry one
           uniform substitute on them. *)
        let y = ref (-1) in
        let ok = ref (Array.length t' = Array.length t) in
        if !ok then
          Array.iteri
            (fun i e ->
              if !ok then
                if e = x then begin
                  if !y < 0 then y := t'.(i)
                  else if t'.(i) <> !y then ok := false
                end
                else if t'.(i) <> e then ok := false)
            t;
        if !ok && !y >= 0 && !y <> x then Hashtbl.replace cands !y ())
      pool;
    List.sort compare (Hashtbl.fold (fun y () acc -> y :: acc) cands [])

let core_with_map ?budget a =
  let rec shrink current retraction =
    let n = Structure.size current in
    (* Look for an endomorphism avoiding some element v of the universe. *)
    let rec attempt v =
      if v >= n then None
      else
        match find ?budget ~restrict:(fun _ y -> y <> v) current current with
        | Some h -> Some h
        | None -> attempt (v + 1)
    in
    match attempt 0 with
    | None -> (current, retraction)
    | Some h ->
      let img = image h in
      let renum = Hashtbl.create (List.length img) in
      List.iteri (fun i x -> Hashtbl.add renum x i) img;
      let smaller = Structure.induced current img in
      let step = Array.map (fun v -> Hashtbl.find renum v) h in
      shrink smaller (compose step retraction)
  in
  shrink a (identity (Structure.size a))

let core ?budget a = fst (core_with_map ?budget a)

let inverse_mapping ~target_size (h : mapping) =
  let inv = Array.make target_size (-1) in
  Array.iteri (fun x v -> inv.(v) <- x) h;
  inv

let is_isomorphism a b h =
  Structure.size a = Structure.size b
  && is_injective h
  && is_homomorphism a b h
  && is_homomorphism b a (inverse_mapping ~target_size:(Structure.size b) h)

let find_isomorphism ?budget a b =
  if Structure.size a <> Structure.size b then None
  else begin
    let result = ref None in
    ignore
      (search ?budget a b ~on_solution:(fun h ->
           if is_isomorphism a b h then begin
             result := Some (Array.copy h);
             false
           end
           else true));
    !result
  end

let isomorphic a b = find_isomorphism a b <> None
