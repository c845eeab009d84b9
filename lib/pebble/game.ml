open Relational

type config = (int * int) list

type engine = [ `Counting | `Naive ]

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
     allocation hazard; callers fall back to the streaming list engine,
     whose budget governs. *)
  let capacity = 1 lsl 26

  let create ?(budget = Budget.unlimited) ~n ~m ~k () =
    if n <= 0 || m <= 0 || k < 1 then invalid_arg "Game.Encoding.create";
    let k = min k n in
    let pow = Array.make (k + 1) 1 in
    let pow_ok = ref true in
    for j = 1 to k do
      if !pow_ok && pow.(j - 1) <= capacity / m then pow.(j) <- pow.(j - 1) * m
      else pow_ok := false
    done;
    if not !pow_ok then None
    else begin
      (* Enumerate subsets in DFS preorder, watching all three capacities:
         ranked codes, counter slots, and the n-sized extension tables that
         every subset below size k carries (ext_sid/ext_pos/free_idx). *)
      let subsets = ref [] and count = ref 0 in
      let total = ref 0 and counter_slots = ref 0 and ext_slots = ref 0 in
      let over = ref false in
      let rec extend subset d start =
        if !over then ()
        else begin
          Budget.tick budget;
          subsets := subset :: !subsets;
          incr count;
          total := !total + pow.(d);
          if d < k then begin
            ext_slots := !ext_slots + n;
            if n - d > 0 then
              counter_slots := !counter_slots + (pow.(d) * (n - d))
          end;
          if !total > capacity || !counter_slots > capacity || !ext_slots > capacity
          then over := true
          else if d < k then
            for x = start to n - 1 do
              extend (subset @ [ x ]) (d + 1) (x + 1)
            done
        end
      in
      extend [] 0 0;
      if !over then None
      else begin
        let nsubsets = !count in
        let elems =
          Array.of_list (List.rev_map Array.of_list !subsets)
        in
        let sid_of = Hashtbl.create (2 * nsubsets) in
        Array.iteri (fun sid s -> Hashtbl.replace sid_of (Array.to_list s) sid) elems;
        let offset = Array.make nsubsets 0 in
        let cnt_base = Array.make nsubsets (-1) in
        let acc = ref 0 and cacc = ref 0 in
        for sid = 0 to nsubsets - 1 do
          let d = Array.length elems.(sid) in
          offset.(sid) <- !acc;
          acc := !acc + pow.(d);
          if d < k && n - d > 0 then begin
            cnt_base.(sid) <- !cacc;
            cacc := !cacc + (pow.(d) * (n - d))
          end
        done;
        let parent_sid =
          Array.map
            (fun s ->
              Array.init (Array.length s) (fun j ->
                  Hashtbl.find sid_of
                    (List.filteri (fun i _ -> i <> j) (Array.to_list s))))
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
            total = !total;
            sid_of;
            parent_sid;
            ext_sid;
            ext_pos;
            free;
            free_idx;
            cnt_base;
            counter_slots = !counter_slots;
          }
      end
    end

  let configs enc = enc.total

  let rank enc config =
    let dom = List.map fst config in
    if List.sort_uniq Int.compare dom <> dom then
      invalid_arg "Game.Encoding.rank: domain not sorted and distinct";
    match Hashtbl.find_opt enc.sid_of dom with
    | None -> invalid_arg "Game.Encoding.rank: domain has more than k elements"
    | Some sid ->
      let code = ref enc.offset.(sid) in
      List.iteri
        (fun j (_, v) ->
          if v < 0 || v >= enc.m then invalid_arg "Game.Encoding.rank: image out of range";
          code := !code + (v * enc.pow.(j)))
        config;
      !code

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
let run_counting ?(verify = false) ~budget ~k:_ enc a b =
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
    ( [],
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
  if !spoiler then ([], trace, stats ~removed:!initial, true)
  else begin
    let surviving = ref [] in
    for sid = nsubsets - 1 downto 0 do
      let d = Array.length enc.elems.(sid) in
      let base = enc.offset.(sid) in
      for t = enc.pow.(d) - 1 downto 0 do
        if get (base + t) then surviving := Encoding.decode enc sid t :: !surviving
      done
    done;
    (!surviving, trace, stats ~removed:!removed, (not verify) || counters_ok ())
  end

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
      let _, _, _, ok = run_counting ~verify:true ~budget:Budget.unlimited ~k enc a b in
      ok

(* ------------------------------------------------------------------ *)
(* The naive list engine (differential reference)                       *)
(* ------------------------------------------------------------------ *)

(* Insert a pebble pair keeping the list sorted by first component. *)
let rec insert (a, b) = function
  | [] -> [ (a, b) ]
  | (a', b') :: rest as l ->
    if a < a' then (a, b) :: l else (a', b') :: insert (a, b) rest

let rec remove_at a = function
  | [] -> []
  | (a', b') :: rest -> if a = a' then rest else (a', b') :: remove_at a rest

let domain config = List.map fst config

(* All subsets of [0..n-1] of size at most k, as sorted lists. *)
let subsets_up_to n k =
  let rec extend subset start size acc =
    let acc = subset :: acc in
    if size = k then acc
    else
      let rec loop i acc =
        if i >= n then acc
        else loop (i + 1) (extend (subset @ [ i ]) (i + 1) (size + 1) acc)
      in
      loop start acc
  in
  extend [] 0 0 []

(* Tuples of A whose elements all satisfy [dom_mem]: a mapping with that
   domain must honour exactly these. *)
let tuples_within a dom_mem =
  List.rev
    (Structure.fold_tuples
       (fun name t acc ->
         if Array.for_all dom_mem t then (name, t) :: acc else acc)
       a [])

let run_naive ~budget ~k a b =
  let n = Structure.size a and m = Structure.size b in
  let family : (config, unit) Hashtbl.t = Hashtbl.create 1024 in
  (* Generate all partial homomorphisms with |dom| <= k. *)
  let generate dom =
    let dom = Array.of_list dom in
    let d = Array.length dom in
    let constraints = tuples_within a (fun x -> Array.exists (( = ) x) dom) in
    let image = Array.make (max d 1) 0 in
    let lookup x =
      let rec find j = if dom.(j) = x then image.(j) else find (j + 1) in
      find 0
    in
    let rec assign i =
      if i = d then begin
        Budget.tick budget;
        let ok =
          List.for_all
            (fun (name, t) ->
              let img = Array.map lookup t in
              match Structure.relation b name with
              | r -> Relation.mem r img
              | exception Not_found -> false)
            constraints
        in
        if ok then begin
          let assoc = Array.to_list (Array.mapi (fun j x -> (x, image.(j))) dom) in
          Hashtbl.replace family assoc ()
        end
      end
      else
        for v = 0 to m - 1 do
          image.(i) <- v;
          assign (i + 1)
        done
    in
    assign 0
  in
  List.iter generate (subsets_up_to n k);
  let initial_configs = Hashtbl.length family in
  (* Consistency loop: drop configurations without the forth property,
     cascading to supersets (restriction-closure) and rechecking
     restrictions whose forth witnesses vanished. *)
  let removed = ref 0 in
  let queue = Queue.create () in
  (* Chronological log of forth-property failures: [(config, x)] records
     that, at removal time, no extension of [config] by a value for [x]
     remained in the family.  Closure removals (supersets of an already
     removed configuration) need no log entry: they always contain an
     earlier forth-removed configuration, which is what the certificate
     checker looks for. *)
  let trace = ref [] in
  let remove ?pivot config =
    if Hashtbl.mem family config then begin
      Hashtbl.remove family config;
      incr removed;
      (match pivot with
      | Some x -> trace := (config, x) :: !trace
      | None -> ());
      Queue.add config queue
    end
  in
  (* First source element (if any) that the configuration cannot be
     extended to within the current family. *)
  let forth_failure config =
    Budget.tick budget;
    if List.length config >= k then None
    else begin
      let dom = domain config in
      let failure = ref None in
      for x = 0 to n - 1 do
        if !failure = None && not (List.mem x dom) then begin
          let extendable = ref false in
          for v = 0 to m - 1 do
            if (not !extendable) && Hashtbl.mem family (insert (x, v) config)
            then extendable := true
          done;
          if not !extendable then failure := Some x
        end
      done;
      !failure
    end
  in
  let initial_bad =
    Hashtbl.fold
      (fun config () acc ->
        match forth_failure config with
        | Some x -> (config, x) :: acc
        | None -> acc)
      family []
  in
  List.iter (fun (config, x) -> remove ~pivot:x config) initial_bad;
  while not (Queue.is_empty queue) do
    Budget.tick budget;
    let config = Queue.pop queue in
    if List.length config < k then begin
      let dom = domain config in
      for x = 0 to n - 1 do
        if not (List.mem x dom) then
          for v = 0 to m - 1 do
            remove (insert (x, v) config)
          done
      done
    end;
    List.iter
      (fun (x, _) ->
        let smaller = remove_at x config in
        if Hashtbl.mem family smaller then
          match forth_failure smaller with
          | Some piv -> remove ~pivot:piv smaller
          | None -> ())
      config
  done;
  let surviving = Hashtbl.fold (fun config () acc -> config :: acc) family [] in
  ( surviving,
    List.rev !trace,
    {
      initial_configs;
      removed = !removed;
      configs_ranked = 0;
      supports_built = 0;
      deaths_propagated = 0;
    } )

(* ------------------------------------------------------------------ *)
(* Entry points                                                         *)
(* ------------------------------------------------------------------ *)

let empty_stats ~initial_configs =
  {
    initial_configs;
    removed = 0;
    configs_ranked = 0;
    supports_built = 0;
    deaths_propagated = 0;
  }

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

let run_traced ?(budget = Budget.unlimited) ?(engine = `Counting) ~k a b =
  if k < 1 then invalid_arg "Game: k must be positive";
  Budget.check budget;
  let n = Structure.size a and m = Structure.size b in
  let family, trace, stats =
    if n = 0 then ([ [] ], [], empty_stats ~initial_configs:1)
    else if m = 0 then ([], [], empty_stats ~initial_configs:0)
    else
      match engine with
      | `Naive -> run_naive ~budget ~k a b
      | `Counting -> (
        match Encoding.create ~budget ~n ~m ~k () with
        | Some enc ->
          let family, trace, stats, _ = run_counting ~budget ~k enc a b in
          (family, trace, stats)
        | None -> run_naive ~budget ~k a b)
  in
  publish_stats stats;
  (family, trace, stats)

let run ?budget ?engine ~k a b =
  let family, _, stats = run_traced ?budget ?engine ~k a b in
  (family, stats)

let winning_family ?budget ?engine ~k a b =
  fst (run ?budget ?engine ~k a b)

let winning_family_with_trace ?budget ?engine ~k a b =
  let family, trace, _ = run_traced ?budget ?engine ~k a b in
  (family, trace)

let duplicator_wins_with_stats ?budget ?engine ~k a b =
  let family, stats = run ?budget ?engine ~k a b in
  (family <> [], stats)

let duplicator_wins ?budget ?engine ~k a b =
  fst (duplicator_wins_with_stats ?budget ?engine ~k a b)

let spoiler_wins ?budget ?engine ~k a b =
  not (duplicator_wins ?budget ?engine ~k a b)

let solve ?budget ?engine ~k a b =
  if spoiler_wins ?budget ?engine ~k a b then Some false else None

type strategy = {
  k : int;
  family_table : (config, unit) Hashtbl.t;
}

let strategy ?budget ?engine ~k a b =
  match winning_family ?budget ?engine ~k a b with
  | [] -> None
  | family ->
    let table = Hashtbl.create (List.length family) in
    List.iter (fun config -> Hashtbl.replace table config ()) family;
    Some { k; family_table = table }

let member s config = Hashtbl.mem s.family_table config

let respond s config a =
  if
    List.length config >= s.k
    || List.mem_assoc a config
    || not (member s config)
  then None
  else begin
    (* Any answer must itself occur in a stored configuration, so probing up
       to the largest stored value suffices; the forth property guarantees a
       hit for genuine family positions. *)
    let limit =
      Hashtbl.fold
        (fun cfg () acc -> List.fold_left (fun acc (_, v) -> max acc v) acc cfg)
        s.family_table 0
    in
    let rec probe b =
      if b > limit then None
      else if Hashtbl.mem s.family_table (insert (a, b) config) then Some b
      else probe (b + 1)
    in
    probe 0
  end
