open Relational

type config = (int * int) list

type stats = {
  initial_configs : int;
  removed : int;
  configs_ranked : int;
  supports_built : int;
  deaths_propagated : int;
}

(* ------------------------------------------------------------------ *)
(* Dense integer encoding of configurations                             *)
(* ------------------------------------------------------------------ *)

(* A configuration is a domain subset S = {s_0 < ... < s_{d-1}} of A
   (d <= k) together with an image tuple over B.  Subsets are numbered by
   size block, and within a block by colex rank r(S) = sum_j C(s_j, j+1),
   a bijection onto [0, C(n,d)).  A configuration's code is
   [code_base.(d) + r(S) * m^d + t] with [t = sum_j image_j * m^j] — mixed
   radix, least-significant digit for the smallest pebbled element.  Every
   neighbour of a configuration (drop a pebble, add one) is O(k)
   arithmetic on the binomial table, so nothing is laid out per subset. *)
module Encoding = struct
  type t = {
    n : int;
    m : int;
    k : int;
    pow : int array;  (* pow.(j) = m^j for j <= k *)
    binom : int array;  (* binom.(c * (k + 1) + j) = C(c, j) for c <= n, j <= k *)
    code_base : int array;  (* d -> first code of size block d; .(k + 1) = all codes *)
    cnt_base : int array;  (* d -> first counter slot of size block d; .(k) = all slots *)
  }

  (* Beyond this many ranked codes or counter slots the flat arrays stop
     being an optimisation and start being an allocation hazard; such
     encodings are refused. *)
  let capacity = 1 lsl 26

  let sat_add a b = if a > max_int - b then max_int else a + b

  let sat_mul a b = if a <> 0 && b > max_int / a then max_int else a * b

  (* Whether the encoding stays within capacity: the ranked codes sum
     C(n,d)*m^d over d <= k and the counter slots C(n,d)*m^d*(n-d) over
     d < k, in saturating arithmetic.  Every binomial and power the
     encoding stores is bounded by a code block, so none overflows.
     Requires [k <= n]. *)
  let fits ~n ~m ~k =
    let rec sum d binom pw codes counters =
      let block = sat_mul binom pw in
      let codes = sat_add codes block in
      let counters =
        if d < k then sat_add counters (sat_mul block (n - d)) else counters
      in
      if codes > capacity || counters > capacity then false
      else
        d = k
        || sum (d + 1) (sat_mul binom (n - d) / (d + 1)) (sat_mul pw m) codes counters
    in
    sum 0 1 1 0 0

  (* C(c, j).  Every caller passes c <= n and j <= k (an element of A
     and a position within a subset of size at most k), so the table
     lookup skips its bounds check on the propagation hot path. *)
  let choose enc c j = Array.unsafe_get enc.binom ((c * (enc.k + 1)) + j)

  let create ~n ~m ~k =
    if n <= 0 || m <= 0 || k < 1 then invalid_arg "Game.Encoding.create";
    let k = min k n in
    if not (fits ~n ~m ~k) then None
    else begin
      let pow = Array.make (k + 1) 1 in
      for j = 1 to k do
        pow.(j) <- pow.(j - 1) * m
      done;
      (* Pascal's rule, row by row. *)
      let binom = Array.make ((n + 1) * (k + 1)) 0 in
      for c = 0 to n do
        binom.(c * (k + 1)) <- 1;
        for j = 1 to min c k do
          binom.((c * (k + 1)) + j) <-
            binom.(((c - 1) * (k + 1)) + j - 1) + binom.(((c - 1) * (k + 1)) + j)
        done
      done;
      let code_base = Array.make (k + 2) 0 and cnt_base = Array.make (k + 1) 0 in
      for d = 0 to k do
        let block = binom.((n * (k + 1)) + d) * pow.(d) in
        code_base.(d + 1) <- code_base.(d) + block;
        if d < k then cnt_base.(d + 1) <- cnt_base.(d) + (block * (n - d))
      done;
      Some { n; m; k; pow; binom; code_base; cnt_base }
    end

  let configs enc = enc.code_base.(enc.k + 1)

  let code_of enc d r t = enc.code_base.(d) + (r * enc.pow.(d)) + t

  (* The counter of configuration (S, t), |S| = d < k, for the free
     element of index [fi] among those outside S in ascending order: an
     element x has index x - |{s in S : s < x}|. *)
  let slot enc d r t fi =
    enc.cnt_base.(d) + (((r * enc.pow.(d)) + t) * (enc.n - d)) + fi

  (* The image tuple without digit [j], and with a zero digit inserted at
     [j]. *)
  let narrow enc t j = (t / enc.pow.(j + 1) * enc.pow.(j)) + (t mod enc.pow.(j))

  let widen enc t j = (t / enc.pow.(j) * enc.pow.(j + 1)) + (t mod enc.pow.(j))

  (* The rank of s.(0 .. d-1) without its j-th element: the elements
     above it move down one position. *)
  let drop_rank enc s d j =
    let r = ref 0 in
    for i = 0 to d - 1 do
      if i < j then r := !r + choose enc s.(i) (i + 1)
      else if i > j then r := !r + choose enc s.(i) i
    done;
    !r

  (* [f x p r'] for each element x outside s.(0 .. d-1), d < k, in
     ascending order, with x's insertion position p and the rank r' of
     the subset plus x: the elements below x keep their terms, those
     above move up one position. *)
  let iter_extensions enc s d f =
    let low = ref 0 and high = ref 0 in
    for i = 0 to d - 1 do
      high := !high + choose enc s.(i) (i + 2)
    done;
    let p = ref 0 in
    for x = 0 to enc.n - 1 do
      if !p < d && s.(!p) = x then begin
        low := !low + choose enc x (!p + 1);
        high := !high - choose enc x (!p + 2);
        incr p
      end
      else f x !p (!low + choose enc x (!p + 1) + !high)
    done

  (* Fill s.(0 .. d-1) with the subset of rank r: from the top, each
     element is the largest c with C(c, j+1) at most what is left, and
     the last one is what is left, since C(c, 1) = c. *)
  let unrank_subset enc d r s =
    let r = ref r and hi = ref (enc.n - 1) in
    for j = d - 1 downto 1 do
      let lo = ref j in
      while !lo < !hi do
        let mid = (!lo + !hi + 1) / 2 in
        if choose enc mid (j + 1) <= !r then lo := mid else hi := mid - 1
      done;
      s.(j) <- !lo;
      r := !r - choose enc !lo (j + 1);
      hi := !lo - 1
    done;
    if d > 0 then s.(0) <- !r

  (* [f s r] for each subset of size d in rank order; [s] is reused. *)
  let iter_block enc d f =
    let s = Array.init d Fun.id in
    let r = ref 0 and more = ref true in
    while !more do
      f s !r;
      incr r;
      (* The colex successor: bump the lowest element with room above
         it and reset those below. *)
      let j = ref 0 in
      while !j < d && s.(!j) + 1 = if !j + 1 < d then s.(!j + 1) else enc.n do
        incr j
      done;
      if !j = d then more := false
      else begin
        s.(!j) <- s.(!j) + 1;
        for i = 0 to !j - 1 do
          s.(i) <- i
        done
      end
    done

  (* The size block holding a code. *)
  let size_of enc code =
    let d = ref 0 in
    while code >= enc.code_base.(!d + 1) do
      incr d
    done;
    !d

  (* The code of a well-formed configuration; [None] for an unsorted or
     repeated domain, an element or image out of range, or a domain larger
     than k. *)
  let code enc config =
    let d = List.length config in
    let rec go j prev r t = function
      | [] -> Some (code_of enc d r t)
      | (x, v) :: rest ->
        if x <= prev || x >= enc.n || v < 0 || v >= enc.m then None
        else go (j + 1) x (r + choose enc x (j + 1)) (t + (v * enc.pow.(j))) rest
    in
    if d > enc.k then None else go 0 (-1) 0 0 config

  let rank enc config =
    match code enc config with
    | Some c -> c
    | None -> invalid_arg "Game.Encoding.rank: malformed configuration"

  let unrank enc code =
    if code < 0 || code >= configs enc then invalid_arg "Game.Encoding.unrank";
    let d = size_of enc code in
    let off = code - enc.code_base.(d) in
    let s = Array.make d 0 and t = off mod enc.pow.(d) in
    unrank_subset enc d (off / enc.pow.(d)) s;
    List.init d (fun j -> (s.(j), t / enc.pow.(j) mod enc.m))
end

(* ------------------------------------------------------------------ *)
(* The counting engine                                                  *)
(* ------------------------------------------------------------------ *)

(* The strong k-consistency fixpoint as AC-4-style support counting over
   the extension relation between configurations.

   Invariant: for every alive configuration [c] with fewer than [k]
   pebbles and every unpebbled source element [x],
   [counters.(slot c x) = number of alive extensions of c by a pebble on x].
   A counter hitting zero is exactly a forth-property failure: [c] dies
   with pivot [x] (a trace entry), and each death propagates twice —
   upwards, decrementing the counters of the dead configuration's
   immediate restrictions (which may cascade), and downwards, killing its
   immediate extensions (restriction-closure, no trace entry needed: the
   certificate checker finds the forth-removed subset). *)
let run_counting ?(verify = false) ~budget enc a b =
  let open Encoding in
  let n = enc.n and m = enc.m and k = enc.k in
  let pow = enc.pow in
  let total = configs enc in
  let alive = Bytes.make (max 1 total) '\000' in
  let get id = Bytes.unsafe_get alive id <> '\000' in
  let set id = Bytes.unsafe_set alive id '\001' in
  let clear id = Bytes.unsafe_set alive id '\000' in
  (* Per-symbol target indexes, probed O(1) per constraint check. *)
  let target_index =
    List.map
      (fun (name, arity) ->
        ( name,
          arity,
          match Structure.relation b name with
          | r -> Some (Relation.index r)
          | exception Not_found -> None ))
      (Vocabulary.symbols (Structure.vocabulary a))
  in
  (* Nullary facts constrain every configuration, including the empty one;
     the per-position tuple gathering below never sees arity-0 symbols, so
     check them up front.  A 0-ary fact of A missing from B (or whose
     relation is absent from B) means no configuration at all is a partial
     homomorphism — the Spoiler wins before placing a pebble, and the
     one-step derivation "the empty position cannot place element 0"
     replays through the certificate checker, which re-checks nullary
     facts on every candidate extension. *)
  let nullary_ok =
    List.for_all
      (fun (name, arity, target) ->
        arity > 0
        || Relation.for_all
             (fun t ->
               match target with
               | None -> false
               | Some ix -> Relation.Index.mem ix t)
             (Structure.relation a name))
      target_index
  in
  if not nullary_ok then
    ( alive,
      [ ([], 0) ],
      {
        initial_configs = 0;
        removed = 0;
        configs_ranked = total;
        supports_built = 0;
        deaths_propagated = 0;
      },
      true )
  else
  (* The constraining tuples of A newly within subset [s] of size [d]:
     those containing its maximum element with every component inside the
     subset.  Gathered through the per-(position, value) indexes of A, so
     each relation is scanned once per (max element, position) rather than
     in full per subset.  Each constraint is compiled to the digit ranks
     of its components, and checked exactly once per subset chain: deeper
     subsets inherit the verdict through the parent bit. *)
  let in_subset = Array.make n false in
  let rank_in = Array.make n (-1) in
  let new_constraints s d =
    let x = s.(d - 1) in
    for j = 0 to d - 1 do
      in_subset.(s.(j)) <- true;
      rank_in.(s.(j)) <- j
    done;
    let cons = ref [] in
    List.iter
      (fun (name, arity, target) ->
        let ix = Structure.index a name in
        for pos = 0 to arity - 1 do
          Array.iter
            (fun t ->
              (* Count the tuple only at the first position carrying x. *)
              let first = ref true in
              for p = 0 to pos - 1 do
                if t.(p) = x then first := false
              done;
              if !first && Array.for_all (fun e -> in_subset.(e)) t then
                cons :=
                  (Array.map (fun e -> rank_in.(e)) t, target, Array.make (Array.length t) 0)
                  :: !cons)
            (Relation.Index.matching ix ~pos ~value:x)
        done)
      target_index;
    for j = 0 to d - 1 do
      in_subset.(s.(j)) <- false;
      rank_in.(s.(j)) <- -1
    done;
    !cons
  in
  (* Phase 1: validity.  A configuration is alive iff its restriction by
     the maximum pebble is alive and the newly-covered tuples of A land in
     the corresponding relations of B.  Dropping the maximum keeps the
     other elements' rank terms, and lands in the previous size block,
     which is decided first. *)
  let initial = ref 1 in
  set 0;
  for d = 1 to k do
    iter_block enc d (fun s r ->
        let cons = new_constraints s d in
        let base = code_of enc d r 0 in
        let pbase = code_of enc (d - 1) (r - choose enc s.(d - 1) d) 0 in
        for t = 0 to pow.(d) - 1 do
          Budget.tick budget;
          if get (pbase + (t mod pow.(d - 1))) then begin
            let ok =
              List.for_all
                (fun (ranks, target, img) ->
                  match target with
                  | None -> false
                  | Some ix ->
                    Array.iteri (fun i j -> img.(i) <- t / pow.(j) mod m) ranks;
                    Relation.Index.mem ix img)
                cons
            in
            if ok then begin
              set (base + t);
              incr initial
            end
          end
        done)
  done;
  (* Phase 2: support counters, one increment per (alive configuration,
     pebble) pair.  Restrictions of a partial homomorphism are partial
     homomorphisms, so every counted parent is alive.  Element s_j has
     free index s_j - j in the restriction that drops it. *)
  let counters = Array.make (max 1 enc.cnt_base.(k)) 0 in
  let supports = ref 0 in
  let parent = Array.make k 0 in
  for d = 1 to k do
    iter_block enc d (fun s r ->
        for j = 0 to d - 1 do
          parent.(j) <- drop_rank enc s d j
        done;
        let base = code_of enc d r 0 in
        for t = 0 to pow.(d) - 1 do
          if get (base + t) then begin
            Budget.tick budget;
            for j = 0 to d - 1 do
              let c = slot enc (d - 1) parent.(j) (narrow enc t j) (s.(j) - j) in
              counters.(c) <- counters.(c) + 1;
              incr supports
            done
          end
        done)
  done;
  (* Deaths. *)
  let removed = ref 0 and propagated = ref 0 in
  let trace = ref [] in
  let spoiler = ref false in
  let queue = Queue.create () in
  let kill ?pivot id =
    if get id then begin
      clear id;
      incr removed;
      (match pivot with
      | Some x -> trace := (id, x) :: !trace
      | None -> ());
      (* Code 0 is the empty configuration. *)
      if id = 0 then spoiler := true;
      Queue.add id queue
    end
  in
  (* Initial forth failures: a zero counter with no deaths yet means no
     valid extension exists at all.  The first free element with one is
     the failure's pivot. *)
  for d = 0 to k - 1 do
    iter_block enc d (fun s r ->
        for t = 0 to pow.(d) - 1 do
          let id = code_of enc d r t in
          if get id then begin
            let pivot = ref (-1) in
            iter_extensions enc s d (fun x p _ ->
                if !pivot < 0 && counters.(slot enc d r t (x - p)) = 0 then pivot := x);
            if !pivot >= 0 then kill ~pivot:!pivot id
          end
        done)
  done;
  (* A dead configuration's subset is decoded only when it is popped. *)
  let s = Array.make k 0 in
  while (not !spoiler) && not (Queue.is_empty queue) do
    Budget.tick budget;
    incr propagated;
    let id = Queue.pop queue in
    let d = size_of enc id in
    let off = id - enc.code_base.(d) in
    let t = off mod pow.(d) in
    unrank_subset enc d (off / pow.(d)) s;
    (* Downwards: restriction-closure kills every alive extension. *)
    if d < k then
      iter_extensions enc s d (fun _ p r' ->
          let stem = code_of enc (d + 1) r' (widen enc t p) in
          for v = 0 to m - 1 do
            kill (stem + (v * pow.(p)))
          done);
    (* Upwards: one lost support per immediate restriction. *)
    for j = 0 to d - 1 do
      let pr = drop_rank enc s d j and pt = narrow enc t j in
      let pid = code_of enc (d - 1) pr pt in
      if get pid then begin
        let c = slot enc (d - 1) pr pt (s.(j) - j) in
        counters.(c) <- counters.(c) - 1;
        if counters.(c) = 0 then kill ~pivot:s.(j) pid
      end
    done
  done;
  let trace = List.rev_map (fun (id, x) -> (Encoding.unrank enc id, x)) !trace in
  let stats ~removed =
    {
      initial_configs = !initial;
      removed;
      configs_ranked = total;
      supports_built = !supports;
      deaths_propagated = !propagated;
    }
  in
  (* Optional audit of the counter invariant against the final bitmap:
     every survivor below k pebbles must hold, for each unpebbled element,
     a counter both positive and equal to its surviving extensions. *)
  let counters_ok () =
    let ok = ref true in
    for d = 0 to k - 1 do
      iter_block enc d (fun s r ->
          for t = 0 to pow.(d) - 1 do
            if get (code_of enc d r t) then
              iter_extensions enc s d (fun x p r' ->
                  let stem = code_of enc (d + 1) r' (widen enc t p) in
                  let count = ref 0 in
                  for v = 0 to m - 1 do
                    if get (stem + (v * pow.(p))) then incr count
                  done;
                  if !count = 0 || counters.(slot enc d r t (x - p)) <> !count then
                    ok := false)
          done)
    done;
    !ok
  in
  if !spoiler then begin
    (* The Spoiler won mid-cascade: the family is empty, whatever bits
       the stopped worklist left set. *)
    Bytes.fill alive 0 (Bytes.length alive) '\000';
    (alive, trace, stats ~removed:!initial, true)
  end
  else (alive, trace, stats ~removed:!removed, (not verify) || counters_ok ())

(* The counter invariant audited against the final bitmap on a full run of
   the counting engine.  Exposed for the test suite; the audit recounts
   every survivor's extensions, so keep instances small. *)
let counter_invariant ~k a b =
  if k < 1 then invalid_arg "Game: k must be positive";
  let n = Structure.size a and m = Structure.size b in
  if n = 0 || m = 0 then true
  else
    match Encoding.create ~n ~m ~k with
    | None -> true
    | Some enc ->
      let _, _, _, ok = run_counting ~verify:true ~budget:Budget.unlimited enc a b in
      ok

(* ------------------------------------------------------------------ *)
(* Entry points                                                         *)
(* ------------------------------------------------------------------ *)

(* Publish one engine run's stats as telemetry counters, so a dispatcher
   span over the k-consistency route carries the engine work. *)
let publish_stats st =
  if Telemetry.enabled () then begin
    Telemetry.count "pebble.initial_configs" st.initial_configs;
    Telemetry.count "pebble.removed" st.removed;
    Telemetry.count "pebble.configs_ranked" st.configs_ranked;
    Telemetry.count "pebble.supports_built" st.supports_built;
    Telemetry.count "pebble.deaths_propagated" st.deaths_propagated
  end

(* The family is the alive bitmap over the encoding's codes.  Without an
   encoding (an empty source or target) the only possible configuration
   is the empty one, whose liveness is the one byte. *)
type family = { k : int; m : int; enc : Encoding.t option; alive : Bytes.t }

type outcome = { family : family; trace : (config * int) list; stats : stats }

let mem f config =
  let id =
    match f.enc with
    | Some enc -> Encoding.code enc config
    | None -> if config = [] then Some 0 else None
  in
  match id with Some id -> Bytes.get f.alive id <> '\000' | None -> false

let configs f =
  match f.enc with
  | None -> if mem f [] then [ [] ] else []
  | Some enc ->
    let acc = ref [] in
    for id = Encoding.configs enc - 1 downto 0 do
      if Bytes.get f.alive id <> '\000' then acc := Encoding.unrank enc id :: !acc
    done;
    !acc

let run ?(budget = Budget.unlimited) ~k a b =
  if k < 1 then invalid_arg "Game: k must be positive";
  Budget.check budget;
  let n = Structure.size a and m = Structure.size b in
  let trivial ~wins =
    Some
      {
        family =
          { k; m; enc = None; alive = Bytes.make 1 (if wins then '\001' else '\000') };
        (* A lost game on a nonempty source: the empty position cannot
           place element 0. *)
        trace = (if wins then [] else [ ([], 0) ]);
        stats =
          {
            initial_configs = (if wins then 1 else 0);
            removed = 0;
            configs_ranked = 0;
            supports_built = 0;
            deaths_propagated = 0;
          };
      }
  in
  let outcome =
    if n = 0 then trivial ~wins:true
    else if m = 0 then trivial ~wins:false
    else
      Option.map
        (fun enc ->
          let alive, trace, stats, _ = run_counting ~budget enc a b in
          { family = { k; m; enc = Some enc; alive }; trace; stats })
        (Encoding.create ~n ~m ~k)
  in
  Option.iter (fun o -> publish_stats o.stats) outcome;
  outcome

let duplicator_wins ?budget ~k a b =
  match run ?budget ~k a b with
  | Some o -> mem o.family []
  | None ->
    invalid_arg "Game.duplicator_wins: configurations exceed the encoding capacity"

let spoiler_wins ?budget ~k a b = not (duplicator_wins ?budget ~k a b)

(* Insert a pebble pair keeping the list sorted by first component. *)
let rec insert (a, b) = function
  | [] -> [ (a, b) ]
  | (a', b') :: rest as l ->
    if a < a' then (a, b) :: l else (a', b') :: insert (a, b) rest

let respond f config a =
  if List.length config >= f.k || List.mem_assoc a config || not (mem f config) then None
  else List.find_opt (fun b -> mem f (insert (a, b) config)) (List.init f.m Fun.id)
