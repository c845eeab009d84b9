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

(* A configuration is a domain subset S of A (|S| <= k, sorted) together
   with an image tuple over B.  Subsets are enumerated in DFS preorder
   (each subset extends its parent by one element larger than all current
   ones), so a subset's id is always greater than that of the subset
   obtained by dropping its maximum.  A configuration's code is
   [offset.(sid) + sum_j image_j * m^j] where [j] is the element's rank
   within the sorted domain — mixed radix, least-significant digit for the
   smallest pebbled element. *)
module Encoding = struct
  type t = {
    n : int;
    m : int;
    k : int;
    pow : int array;  (* pow.(j) = m^j for j <= k *)
    elems : int array array;  (* sid -> sorted domain *)
    offset : int array;  (* sid -> first code of the subset's block *)
    total : int;  (* codes ranked overall *)
    sid_of : (int list, int) Hashtbl.t;
    parent_sid : int array array;  (* sid -> j -> sid of S minus its j-th element *)
    ext_sid : int array array;  (* sid -> x -> sid of S + x, or -1 *)
    ext_pos : int array array;  (* sid -> x -> insertion rank of x in S + x *)
    free : int array array;  (* sid -> elements outside S, ascending; [||] at |S| = k *)
    free_idx : int array array;  (* sid -> x -> index into free, or -1 *)
    cnt_base : int array;  (* sid -> first counter slot, or -1 *)
    counter_slots : int;
  }

  (* Beyond this many ranked codes, counter slots or per-subset extension
     slots the flat arrays stop being an optimisation and start being an
     allocation hazard; such layouts are refused. *)
  let capacity = 1 lsl 26

  let sat_add a b = if a > max_int - b then max_int else a + b

  let sat_mul a b = if a <> 0 && b > max_int / a then max_int else a * b

  (* Whether the layout stays within capacity, decided before any subset
     is enumerated: the ranked codes sum C(n,d)*m^d over d <= k, the
     counter slots C(n,d)*m^d*(n-d) over d < k, and the n-sized extension
     tables C(n,d)*n over d < k, all in saturating arithmetic.  Requires
     [k <= n]. *)
  let fits ~n ~m ~k =
    let rec sum d binom pw codes counters exts =
      let block = sat_mul binom pw in
      let codes = sat_add codes block in
      let counters, exts =
        if d < k then
          (sat_add counters (sat_mul block (n - d)), sat_add exts (sat_mul binom n))
        else (counters, exts)
      in
      if codes > capacity || counters > capacity || exts > capacity then false
      else
        d = k
        || sum (d + 1)
             (sat_mul binom (n - d) / (d + 1))
             (sat_mul pw m) codes counters exts
    in
    sum 0 1 1 0 0 0

  let create ?(budget = Budget.unlimited) ~n ~m ~k () =
    if n <= 0 || m <= 0 || k < 1 then invalid_arg "Game.Encoding.create";
    let k = min k n in
    if not (fits ~n ~m ~k) then None
    else begin
      let pow = Array.make (k + 1) 1 in
      for j = 1 to k do
        pow.(j) <- pow.(j - 1) * m
      done;
      (* Enumerate subsets in DFS preorder. *)
      let subsets = ref [] in
      let rec extend subset d start =
        Budget.tick budget;
        subsets := subset :: !subsets;
        if d < k then
          for x = start to n - 1 do
            extend (subset @ [ x ]) (d + 1) (x + 1)
          done
      in
      extend [] 0 0;
      let elems = Array.of_list (List.rev_map Array.of_list !subsets) in
      let nsubsets = Array.length elems in
      let sid_of = Hashtbl.create (2 * nsubsets) in
      Array.iteri (fun sid s -> Hashtbl.replace sid_of (Array.to_list s) sid) elems;
      let offset = Array.make nsubsets 0 in
      let cnt_base = Array.make nsubsets (-1) in
      let acc = ref 0 and cacc = ref 0 in
      for sid = 0 to nsubsets - 1 do
        let d = Array.length elems.(sid) in
        offset.(sid) <- !acc;
        acc := !acc + pow.(d);
        if d < k then begin
          cnt_base.(sid) <- !cacc;
          cacc := !cacc + (pow.(d) * (n - d))
        end
      done;
      let parent_sid =
        Array.map
          (fun s ->
            Array.init (Array.length s) (fun j ->
                Hashtbl.find sid_of (List.filteri (fun i _ -> i <> j) (Array.to_list s))))
          elems
      in
      (* The n-sized extension tables exist only below size k; the
         dominant |S| = k subsets never consult them, so they all share
         the one empty array the rows were initialised with. *)
      let ext_sid = Array.make nsubsets [||] and ext_pos = Array.make nsubsets [||] in
      let free = Array.make nsubsets [||] and free_idx = Array.make nsubsets [||] in
      Array.iteri
        (fun sid s ->
          Budget.tick budget;
          let d = Array.length s in
          if d < k then begin
            let esid = Array.make n (-1) and epos = Array.make n (-1) in
            let fidx = Array.make n (-1) in
            let fr = ref [] in
            for x = n - 1 downto 0 do
              if not (Array.exists (( = ) x) s) then begin
                let bigger = List.sort compare (x :: Array.to_list s) in
                esid.(x) <- Hashtbl.find sid_of bigger;
                let pos = ref 0 in
                List.iteri (fun i e -> if e = x then pos := i) bigger;
                epos.(x) <- !pos;
                fr := x :: !fr
              end
            done;
            let fr = Array.of_list !fr in
            Array.iteri (fun i x -> fidx.(x) <- i) fr;
            free.(sid) <- fr;
            ext_sid.(sid) <- esid;
            ext_pos.(sid) <- epos;
            free_idx.(sid) <- fidx
          end)
        elems;
      Some
        {
          n;
          m;
          k;
          pow;
          elems;
          offset;
          total = !acc;
          sid_of;
          parent_sid;
          ext_sid;
          ext_pos;
          free;
          free_idx;
          cnt_base;
          counter_slots = !cacc;
        }
    end

  let configs enc = enc.total

  (* The code of a well-formed configuration; [None] for an unsorted or
     repeated domain, an image out of range, or a domain outside the
     ranked subsets. *)
  let code enc config =
    let dom = List.map fst config in
    if
      List.sort_uniq Int.compare dom <> dom
      || List.exists (fun (_, v) -> v < 0 || v >= enc.m) config
    then None
    else
      Option.map
        (fun sid ->
          List.fold_left ( + ) enc.offset.(sid)
            (List.mapi (fun j (_, v) -> v * enc.pow.(j)) config))
        (Hashtbl.find_opt enc.sid_of dom)

  let rank enc config =
    match code enc config with
    | Some c -> c
    | None -> invalid_arg "Game.Encoding.rank: malformed configuration"

  (* The subset owning a code, by binary search over the block offsets. *)
  let sid_of_code enc code =
    let lo = ref 0 and hi = ref (Array.length enc.offset - 1) in
    while !lo < !hi do
      let mid = (!lo + !hi + 1) / 2 in
      if enc.offset.(mid) <= code then lo := mid else hi := mid - 1
    done;
    !lo

  let decode enc sid t =
    let s = enc.elems.(sid) in
    List.init (Array.length s) (fun j -> (s.(j), t / enc.pow.(j) mod enc.m))

  let unrank enc code =
    if code < 0 || code >= enc.total then invalid_arg "Game.Encoding.unrank";
    let sid = sid_of_code enc code in
    decode enc sid (code - enc.offset.(sid))
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
  let n = enc.n and m = enc.m in
  let k = enc.k in
  let nsubsets = Array.length enc.elems in
  let alive = Bytes.make (max 1 enc.total) '\000' in
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
        configs_ranked = enc.total;
        supports_built = 0;
        deaths_propagated = 0;
      },
      true )
  else
  (* The constraining tuples of A newly within subset [sid]: those
     containing its maximum element with every component inside the
     subset.  Gathered through the per-(position, value) indexes of A, so
     each relation is scanned once per (max element, position) rather than
     in full per subset.  Each constraint is compiled to the digit ranks
     of its components, and checked exactly once per subset chain: deeper
     subsets inherit the verdict through the parent bit. *)
  let in_subset = Array.make n false in
  let rank_in = Array.make n (-1) in
  let new_constraints sid =
    let s = enc.elems.(sid) in
    let d = Array.length s in
    let x = s.(d - 1) in
    Array.iteri
      (fun j e ->
        in_subset.(e) <- true;
        rank_in.(e) <- j)
      s;
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
    Array.iter
      (fun e ->
        in_subset.(e) <- false;
        rank_in.(e) <- (-1))
      s;
    !cons
  in
  (* Phase 1: validity.  A configuration is alive iff its restriction by
     the maximum pebble is alive and the newly-covered tuples of A land in
     the corresponding relations of B. *)
  let validate_subset sid =
    let d = Array.length enc.elems.(sid) in
    let cons = new_constraints sid in
    let psid = enc.parent_sid.(sid).(d - 1) in
    let base = enc.offset.(sid) and pbase = enc.offset.(psid) in
    let block = enc.pow.(d - 1) in
    let found = ref 0 in
    for t = 0 to enc.pow.(d) - 1 do
      Budget.tick budget;
      if get (pbase + (t mod block)) then begin
        let ok =
          List.for_all
            (fun (ranks, target, img) ->
              match target with
              | None -> false
              | Some ix ->
                Array.iteri (fun i j -> img.(i) <- t / enc.pow.(j) mod m) ranks;
                Relation.Index.mem ix img)
            cons
        in
        if ok then begin
          set (base + t);
          incr found
        end
      end
    done;
    !found
  in
  let initial = ref 0 in
  set 0;
  incr initial;
  for sid = 1 to nsubsets - 1 do
    initial := !initial + validate_subset sid
  done;
  (* Phase 2: support counters, one increment per (alive configuration,
     pebble) pair.  Restrictions of a partial homomorphism are partial
     homomorphisms, so every counted parent is alive. *)
  let counters = Array.make (max 1 enc.counter_slots) 0 in
  let supports = ref 0 in
  for sid = 1 to nsubsets - 1 do
    let s = enc.elems.(sid) in
    let d = Array.length s in
    let base = enc.offset.(sid) in
    for t = 0 to enc.pow.(d) - 1 do
      if get (base + t) then begin
        Budget.tick budget;
        for j = 0 to d - 1 do
          let psid = enc.parent_sid.(sid).(j) in
          let pcode = (t / enc.pow.(j + 1) * enc.pow.(j)) + (t mod enc.pow.(j)) in
          let nfree = Array.length enc.free.(psid) in
          let fi = enc.free_idx.(psid).(s.(j)) in
          let slot = enc.cnt_base.(psid) + (pcode * nfree) + fi in
          counters.(slot) <- counters.(slot) + 1;
          incr supports
        done
      end
    done
  done;
  (* Deaths. *)
  let removed = ref 0 and propagated = ref 0 in
  let trace = ref [] in
  let spoiler = ref false in
  (* Zero-counter scan over one subset: the first free element with no
     alive extension is the forth failure's pivot. *)
  let zero_pivot sid t =
    let nfree = Array.length enc.free.(sid) in
    let fi = ref 0 and pivot = ref (-1) in
    while !pivot < 0 && !fi < nfree do
      if counters.(enc.cnt_base.(sid) + (t * nfree) + !fi) = 0 then
        pivot := enc.free.(sid).(!fi);
      incr fi
    done;
    !pivot
  in
  let queue = Queue.create () in
  let kill ?pivot sid t =
    let id = enc.offset.(sid) + t in
    if get id then begin
      clear id;
      incr removed;
      (match pivot with
      | Some x -> trace := (sid, t, x) :: !trace
      | None -> ());
      if Array.length enc.elems.(sid) = 0 then spoiler := true;
      Queue.add (sid, t) queue
    end
  in
  (* Initial forth failures: a zero counter with no deaths yet means no
     valid extension exists at all. *)
  for sid = 0 to nsubsets - 1 do
    let d = Array.length enc.elems.(sid) in
    if d < k && Array.length enc.free.(sid) > 0 then begin
      let base = enc.offset.(sid) in
      for t = 0 to enc.pow.(d) - 1 do
        if get (base + t) then begin
          let pivot = zero_pivot sid t in
          if pivot >= 0 then kill ~pivot sid t
        end
      done
    end
  done;
  while (not !spoiler) && not (Queue.is_empty queue) do
    Budget.tick budget;
    incr propagated;
    let sid, t = Queue.pop queue in
    let s = enc.elems.(sid) in
    let d = Array.length s in
    (* Downwards: restriction-closure kills every alive extension. *)
    if d < k then
      Array.iter
        (fun x ->
          let sid' = enc.ext_sid.(sid).(x) in
          let pos = enc.ext_pos.(sid).(x) in
          let high = t / enc.pow.(pos) and low = t mod enc.pow.(pos) in
          let stem = (high * enc.pow.(pos + 1)) + low in
          for v = 0 to m - 1 do
            let t' = stem + (v * enc.pow.(pos)) in
            if get (enc.offset.(sid') + t') then kill sid' t'
          done)
        enc.free.(sid);
    (* Upwards: one lost support per immediate restriction. *)
    for j = 0 to d - 1 do
      let psid = enc.parent_sid.(sid).(j) in
      let pcode = (t / enc.pow.(j + 1) * enc.pow.(j)) + (t mod enc.pow.(j)) in
      if get (enc.offset.(psid) + pcode) then begin
        let nfree = Array.length enc.free.(psid) in
        let fi = enc.free_idx.(psid).(s.(j)) in
        let slot = enc.cnt_base.(psid) + (pcode * nfree) + fi in
        counters.(slot) <- counters.(slot) - 1;
        if counters.(slot) = 0 then kill ~pivot:s.(j) psid pcode
      end
    done
  done;
  let trace =
    List.rev_map (fun (sid, t, x) -> (Encoding.decode enc sid t, x)) !trace
  in
  let stats ~removed =
    {
      initial_configs = !initial;
      removed;
      configs_ranked = enc.total;
      supports_built = !supports;
      deaths_propagated = !propagated;
    }
  in
  (* Optional audit of the counter invariant against the final bitmap:
     every survivor below k pebbles must hold, for each unpebbled element,
     a counter both positive and equal to its surviving extensions. *)
  let counters_ok () =
    let ok = ref true in
    for sid = 0 to nsubsets - 1 do
      let d = Array.length enc.elems.(sid) in
      let nfree = Array.length enc.free.(sid) in
      if d < k && nfree > 0 then
        for t = 0 to enc.pow.(d) - 1 do
          if get (enc.offset.(sid) + t) then
            Array.iteri
              (fun fi x ->
                let sid' = enc.ext_sid.(sid).(x) and pos = enc.ext_pos.(sid).(x) in
                let stem =
                  (t / enc.pow.(pos) * enc.pow.(pos + 1)) + (t mod enc.pow.(pos))
                in
                let count = ref 0 in
                for v = 0 to m - 1 do
                  if get (enc.offset.(sid') + stem + (v * enc.pow.(pos))) then incr count
                done;
                if !count = 0 || counters.(enc.cnt_base.(sid) + (t * nfree) + fi) <> !count
                then ok := false)
              enc.free.(sid)
        done
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
    match Encoding.create ~n ~m ~k () with
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
        (Encoding.create ~budget ~n ~m ~k ())
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
