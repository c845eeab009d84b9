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

(* A nullary fact [P()] of [a] holds under every mapping or under none:
   it needs [P()] in [b].  Arc consistency never sees arity-0 atoms, so
   every engine that shortcuts or propagates checks them here first. *)
let missing_nullary a b =
  List.find_opt
    (fun (name, arity) ->
      arity = 0
      && (not (Relation.is_empty (Structure.relation a name)))
      &&
      match Structure.relation b name with
      | r -> not (Relation.mem r [||])
      | exception Not_found -> true)
    (Vocabulary.symbols (Structure.vocabulary a))

let nullary_facts_hold a b = missing_nullary a b = None

(* One relation of the source, resolved against the target: the entries
   of its facts, [arity] at a time, and the target index their images
   must be members of. *)
type resolved = { ix : Relation.Index.t; arity : int; atoms : int array }

(* Every fact of [g] maps into the target under [h]. *)
let facts_hold g (h : mapping) =
  let k = ref 0 and ok = ref true in
  while !ok && !k < Array.length g.atoms do
    ok := Relation.Index.mem_image g.ix ~map:h g.atoms ~at:!k ~len:g.arity;
    k := !k + g.arity
  done;
  !ok

let is_homomorphism a b =
  let n = Structure.size a and m = Structure.size b in
  (* A symbol missing from B, or present with another arity, holds no
     image. *)
  let possible = ref (nullary_facts_hold a b) and resolved = ref [] in
  List.iter
    (fun (name, arity) ->
      let r = Structure.relation a name in
      if arity > 0 && not (Relation.is_empty r) then
        match Structure.relation b name with
        | target when Relation.arity target = arity ->
          let atoms = Array.make (arity * Relation.cardinal r) 0 in
          ignore
            (Relation.fold
               (fun t k ->
                 Array.blit t 0 atoms k arity;
                 k + arity)
               r 0);
          resolved := { ix = Relation.index target; arity; atoms } :: !resolved
        | _ | (exception Not_found) -> possible := false)
    (Vocabulary.symbols (Structure.vocabulary a));
  let possible = !possible and resolved = Array.of_list (List.rev !resolved) in
  fun (h : mapping) ->
    possible
    && Array.length h = n
    &&
    let ok = ref true and i = ref 0 in
    while !ok && !i < n do
      ok := h.(!i) >= 0 && h.(!i) < m;
      incr i
    done;
    i := 0;
    while !ok && !i < Array.length resolved do
      ok := facts_hold resolved.(!i) h;
      incr i
    done;
    !ok

type origin = { symbol : string; fact : Tuple.t }

type tree =
  | Conflict of origin
  | Prune of { origin : origin; elem : int; value : int; rest : tree }
  | Split of { elem : int; children : (int * tree) list }

(* The one MAC backtracking loop, on [ctx]'s current domains, which
   must be arc-consistent.  [on_solution] receives each solution and
   returns [true] to continue enumerating.  [budget] is ticked once per
   search-tree node and may abort the search by raising
   [Budget.Exhausted].  With [recorded], every child's subtree is wrapped
   by it, so the tree of every node it exhausts is kept.  Every
   assignment is undone before it returns normally, and answers the node
   count and the root's split. *)
let mac ?(ordering = `Mrv) ?(budget = Budget.unlimited) ?recorded ctx ~on_solution =
  let a = Arc_consistency.source ctx and b = Arc_consistency.target ctx in
  let n = Structure.size a and m = Structure.size b in
  let nodes = ref 0 in
  let tree = ref (Split { elem = 0; children = [] }) in
  let decided = Array.make n false in
  (* Staged at the first solution: most searches the core stage runs
     never reach one. *)
  let check = lazy (is_homomorphism a b) in
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
      assert (Lazy.force check h);
      on_solution h
    end
    else begin
      decided.(x) <- true;
      let continue_ = ref true and children = ref [] in
      for v = 0 to m - 1 do
        if !continue_ && Arc_consistency.dom_mem ctx x v then begin
          incr nodes;
          Budget.tick budget;
          Arc_consistency.push ctx;
          let ok = Arc_consistency.assign ctx x v in
          (match recorded with
          | None -> if ok && not (solve ()) then continue_ := false
          | Some recorded ->
            children :=
              ( v,
                recorded ~alive:ok (fun () ->
                    if not (solve ()) then continue_ := false;
                    !tree) )
              :: !children);
          Arc_consistency.pop ctx
        end
      done;
      decided.(x) <- false;
      if recorded <> None then tree := Split { elem = x; children = List.rev !children };
      !continue_
    end
  in
  ignore (solve ());
  (!nodes, !tree)

let search_context ?budget ctx ~on_solution = ignore (mac ?budget ctx ~on_solution)

(* A fresh context over [a] and [b] for {!mac}.  With [record], the tree
   of every node it exhausts.  [restrict] applies only after arc
   consistency closed the full domains (the closure is the same either
   way), so every logged removal holds without it.  Answers the node
   count, the root's tree and whether [restrict] removed a value that
   closure kept. *)
let explore ~record ?ordering ?(restrict = fun _ _ -> true)
    ?(budget = Budget.unlimited) a b ~on_solution =
  let n = Structure.size a and m = Structure.size b in
  let nodes = ref 0 and restricted = ref false in
  let tree = ref (Split { elem = 0; children = [] }) in
  Budget.check budget;
  (match missing_nullary a b with
  | Some (symbol, _) -> tree := Conflict { symbol; fact = [||] }
  | None when n = 0 -> ignore (on_solution [||])
  | None when m = 0 -> ()
  | None ->
    let log = ref [] in
    let ctx =
      Arc_consistency.create ~budget a b
        ?explain:
          (if record then
             Some (fun elem value symbol fact -> log := (elem, value, { symbol; fact }) :: !log)
           else None)
    in
    (* The removals logged since the last look, wrapped around [last ()]
       in the order they happened; after a wipeout ([alive] false) they
       close on the fact whose support ran out instead. *)
    let recorded ~alive last =
      let removals = !log in
      log := [];
      let step rest (elem, value, origin) = Prune { origin; elem; value; rest } in
      match removals with
      | (_, _, origin) :: removals when not alive ->
        List.fold_left step (Conflict origin) removals
      | removals -> List.fold_left step (last ()) removals
    in
    (* A domain [restrict] empties makes propagation wipe out, or, for
       an element in no fact, the search split over no value. *)
    let apply_restrict () =
      for x = 0 to n - 1 do
        for v = 0 to m - 1 do
          if Arc_consistency.dom_mem ctx x v && not (restrict x v) then begin
            restricted := true;
            ignore (Arc_consistency.remove_value ctx x v)
          end
        done
      done
    in
    let alive =
      Arc_consistency.establish ctx && (apply_restrict (); Arc_consistency.propagate ctx)
    in
    let run () =
      let k, root =
        mac ?ordering ~budget ?recorded:(if record then Some recorded else None) ctx
          ~on_solution
      in
      nodes := k;
      root
    in
    if not record then (if alive then ignore (run ()))
    else tree := recorded ~alive run);
  (!nodes, !tree, !restricted)

let search ?ordering ?restrict ?budget a b ~on_solution =
  let nodes, _, _ = explore ~record:false ?ordering ?restrict ?budget a b ~on_solution in
  nodes

let refute ?restrict ?budget a b =
  let found = ref None in
  let _, tree, restricted =
    explore ~record:true ?restrict ?budget a b ~on_solution:(fun h ->
        found := Some (Array.copy h);
        false)
  in
  match !found with Some h -> Ok h | None -> Error (tree, restricted)

let find_with_stats ?ordering ?restrict ?budget a b =
  let result = ref None in
  let nodes =
    search ?ordering ?restrict ?budget a b ~on_solution:(fun h ->
        result := Some (Array.copy h);
        false)
  in
  (!result, { nodes })

let find ?ordering ?restrict ?budget a b =
  fst (find_with_stats ?ordering ?restrict ?budget a b)

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

let search_seq ?ordering ?restrict ?budget a b =
  generator (fun ~yield ->
      ignore
        (search ?ordering ?restrict ?budget a b ~on_solution:(fun h ->
             yield (Array.copy h);
             true)))

let count ?budget a b =
  let c = ref 0 in
  ignore
    (search ?budget a b ~on_solution:(fun _ ->
         c := checked_add !c 1;
         true));
  !c

let image (h : mapping) = Tuple.elements h

let compose (g : mapping) (h : mapping) = Array.map (fun v -> g.(v)) h

(* Substituting [y] for [x] everywhere in [t].  Fresh array only when [x]
   actually occurs, which in [folds_onto] it always does. *)
let substitute t ~x ~y = Array.map (fun e -> if e = x then y else e) t

(* Membership in the substructure induced on the live elements; no mask
   means every element is live. *)
let is_live live e = match live with None -> true | Some l -> l.(e)

let live_tuple live t = Array.for_all (is_live live) t

let folds_onto ?live a x y =
  x <> y
  && List.for_all
       (fun (name, arity) ->
         let ix = Structure.index a name in
         let ok = ref true in
         (* Every tuple through [x] appears in the position-[p] bucket for
            each position [p] it occupies; checking only the first
            occurrence visits each such tuple exactly once.  The
            substituted tuple is live whenever [t] and [y] are, so plain
            membership answers for the live substructure too. *)
         for p = 0 to arity - 1 do
           if !ok then
             Array.iter
               (fun t ->
                 let first = ref (-1) in
                 Array.iteri
                   (fun i e -> if !first < 0 && e = x then first := i)
                   t;
                 if
                   !ok && !first = p && live_tuple live t
                   && not (Relation.Index.mem ix (substitute t ~x ~y))
                 then ok := false)
               (Relation.Index.matching ix ~pos:p ~value:x)
         done;
         !ok)
       (Vocabulary.symbols (Structure.vocabulary a))

let fold_candidates ?live a x =
  let n = Structure.size a in
  (* Find one live tuple through [x] (any relation, any position).  The
     buckets are sorted, so this is the tuple the induced substructure's
     own index would offer first. *)
  let anchor = ref None in
  List.iter
    (fun (name, arity) ->
      if !anchor = None then
        let ix = Structure.index a name in
        let p = ref 0 in
        while !anchor = None && !p < arity do
          anchor :=
            Option.map
              (fun t -> (ix, t))
              (Array.find_opt (live_tuple live)
                 (Relation.Index.matching ix ~pos:!p ~value:x));
          incr p
        done)
    (Vocabulary.symbols (Structure.vocabulary a));
  match !anchor with
  | None ->
    (* Isolated element: folding it onto anything preserves all tuples. *)
    List.filter (fun y -> y <> x && is_live live y) (List.init n Fun.id)
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
        if !ok && !y >= 0 && !y <> x && live_tuple live t' then
          Hashtbl.replace cands !y ())
      pool;
    List.sort compare (Hashtbl.fold (fun y () acc -> y :: acc) cands [])
