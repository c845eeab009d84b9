(* Target-side index for one relation symbol: the tuple array of B's relation
   plus, per position, value -> indices of tuples carrying that value there.
   Shared by every source atom over the same symbol. *)
type target_info = {
  tuples : Tuple.t array;
  by_pos : int array array array;
}

(* One constraint per source atom R(t).  [kill.(ti)] counts the dead
   (position, value) hits on target tuple [ti]; the tuple supports anything
   iff [kill.(ti) = 0].  [supp.(j).(v)] counts live target tuples with value
   [v] at position [j].  Both are additive, so trail replay in LIFO order
   restores them exactly. *)
type constr = {
  atom : Tuple.t;
  info : target_info;
  kill : int array;
  supp : int array array;
}

type t = {
  a : Structure.t;
  b : Structure.t;
  n : int;
  m : int;
  dom : bool array array;
  count : int array;
  constrs : constr array;
  occ_c : (int * int list) list array;
  trail : (int * int) Stack.t;
  marks : int Stack.t;
  pending_vals : (int * int) Queue.t;
  budget : Budget.t;
  mutable supports_ready : bool;
  mutable init_depth : int;
  mutable removals : int;
}

let build_info m arity tuples =
  let by_pos = Array.init arity (fun _ -> Array.make (max m 1) []) in
  Array.iteri
    (fun ti (tt : Tuple.t) ->
      for j = 0 to arity - 1 do
        by_pos.(j).(tt.(j)) <- ti :: by_pos.(j).(tt.(j))
      done)
    tuples;
  { tuples; by_pos = Array.map (Array.map (fun l -> Array.of_list (List.rev l))) by_pos }

(* Building the constraints and the support counters, and propagating,
   can each take seconds on a large pair, so every 256 constraints or
   queue pops they read the budget's deadline and cancellation flag.
   They tick no nodes and ignore the node limit: the search that owns
   the context counts its nodes and decides when they run out. *)
let poll budget i =
  if i land 255 = 255 then
    match Budget.status budget with
    | Some ((Budget.Deadline | Budget.Cancelled) as reason) ->
      raise (Budget.Exhausted reason)
    | Some Budget.Node_limit | None -> ()

let create ?(budget = Budget.unlimited) a b =
  let n = Structure.size a and m = Structure.size b in
  (* Symbols missing from B, or present with a different arity, act as empty
     relations: no tuple of B can support such an atom. *)
  let infos = Hashtbl.create 16 in
  let info_for name arity =
    match Hashtbl.find_opt infos name with
    | Some info -> info
    | None ->
      let tuples =
        match Structure.relation b name with
        | r when Relation.arity r = arity -> Relation.tuples_array r
        | _ -> [||]
        | exception Not_found -> [||]
      in
      let info = build_info m arity tuples in
      Hashtbl.replace infos name info;
      info
  in
  let acc = ref [] and built = ref 0 in
  Structure.iter_tuples
    (fun name t ->
      poll budget !built;
      incr built;
      let arity = Array.length t in
      let info = info_for name arity in
      acc :=
        {
          atom = t;
          info;
          kill = Array.make (Array.length info.tuples) 0;
          supp = Array.init arity (fun _ -> Array.make (max m 1) 0);
        }
        :: !acc)
    a;
  let constrs = Array.of_list (List.rev !acc) in
  let occ_c = Array.make (max n 1) [] in
  Array.iteri
    (fun ci c ->
      let positions = Hashtbl.create 4 in
      Array.iteri
        (fun j x ->
          Hashtbl.replace positions x
            (j :: (match Hashtbl.find_opt positions x with Some l -> l | None -> [])))
        c.atom;
      Hashtbl.iter (fun x js -> occ_c.(x) <- (ci, List.rev js) :: occ_c.(x)) positions)
    constrs;
  {
    a;
    b;
    n;
    m;
    dom = Array.init (max n 1) (fun _ -> Array.make (max m 1) (m > 0));
    count = Array.make (max n 1) m;
    constrs;
    occ_c;
    trail = Stack.create ();
    marks = Stack.create ();
    pending_vals = Queue.create ();
    budget;
    supports_ready = false;
    init_depth = 0;
    removals = 0;
  }

let source ctx = ctx.a

let target ctx = ctx.b

let dom_mem ctx x v = ctx.dom.(x).(v)

let dom_size ctx x = ctx.count.(x)

let dom_values ctx x =
  let acc = ref [] in
  for v = ctx.m - 1 downto 0 do
    if ctx.dom.(x).(v) then acc := v :: !acc
  done;
  !acc

(* AC-4 bookkeeping.  Removing (x, v) hits, in every constraint where [x]
   occurs at position [j], each target tuple with value [v] at [j]; a tuple
   whose kill count rises 0 -> 1 stops supporting all its values, and any
   value whose support count hits zero becomes a pending removal candidate.
   Reviving replays the same additive updates in reverse; no enqueueing is
   needed because values only come back via [pop], which restores domains
   directly. *)
let kill_supports ctx x v =
  List.iter
    (fun (ci, js) ->
      let c = ctx.constrs.(ci) in
      List.iter
        (fun j ->
          Array.iter
            (fun ti ->
              c.kill.(ti) <- c.kill.(ti) + 1;
              if c.kill.(ti) = 1 then begin
                let tt = c.info.tuples.(ti) in
                for k = 0 to Array.length c.atom - 1 do
                  let w = tt.(k) in
                  c.supp.(k).(w) <- c.supp.(k).(w) - 1;
                  if c.supp.(k).(w) = 0 && ctx.dom.(c.atom.(k)).(w) then
                    Queue.add (c.atom.(k), w) ctx.pending_vals
                done
              end)
            c.info.by_pos.(j).(v))
        js)
    ctx.occ_c.(x)

let revive_supports ctx x v =
  List.iter
    (fun (ci, js) ->
      let c = ctx.constrs.(ci) in
      List.iter
        (fun j ->
          Array.iter
            (fun ti ->
              c.kill.(ti) <- c.kill.(ti) - 1;
              if c.kill.(ti) = 0 then begin
                let tt = c.info.tuples.(ti) in
                for k = 0 to Array.length c.atom - 1 do
                  c.supp.(k).(tt.(k)) <- c.supp.(k).(tt.(k)) + 1
                done
              end)
            c.info.by_pos.(j).(v))
        js)
    ctx.occ_c.(x)

let remove_value ctx x v =
  if ctx.dom.(x).(v) then begin
    ctx.dom.(x).(v) <- false;
    ctx.count.(x) <- ctx.count.(x) - 1;
    ctx.removals <- ctx.removals + 1;
    Telemetry.count "ac.kills" 1;
    Stack.push (x, v) ctx.trail;
    if ctx.supports_ready then kill_supports ctx x v;
    ctx.count.(x) > 0
  end
  else true

(* (Re)initialise the AC-4 counters from the current domains and enqueue
   every currently-unsupported pair.  Entries already sitting in the queue
   are subsumed by the scan (the queue is cleared first), so stale candidates
   from before a deep pop cannot resurface. *)
let ensure_supports ctx =
  Telemetry.count "ac.support_builds" 1;
  Queue.clear ctx.pending_vals;
  Array.iteri
    (fun ci c ->
      poll ctx.budget ci;
      let arity = Array.length c.atom in
      Array.fill c.kill 0 (Array.length c.kill) 0;
      Array.iter (fun row -> Array.fill row 0 (Array.length row) 0) c.supp;
      Array.iteri
        (fun ti (tt : Tuple.t) ->
          let dead = ref 0 in
          for j = 0 to arity - 1 do
            if not ctx.dom.(c.atom.(j)).(tt.(j)) then incr dead
          done;
          c.kill.(ti) <- !dead;
          if !dead = 0 then
            for j = 0 to arity - 1 do
              c.supp.(j).(tt.(j)) <- c.supp.(j).(tt.(j)) + 1
            done)
        c.info.tuples)
    ctx.constrs;
  Array.iter
    (fun c ->
      for j = 0 to Array.length c.atom - 1 do
        let x = c.atom.(j) in
        for v = 0 to ctx.m - 1 do
          if ctx.dom.(x).(v) && c.supp.(j).(v) = 0 then Queue.add (x, v) ctx.pending_vals
        done
      done)
    ctx.constrs;
  ctx.init_depth <- Stack.length ctx.trail;
  ctx.supports_ready <- true

let value_unsupported ctx y w =
  List.exists
    (fun (ci, js) ->
      let c = ctx.constrs.(ci) in
      List.exists (fun j -> c.supp.(j).(w) = 0) js)
    ctx.occ_c.(y)

let propagate_ac4 ctx =
  if (not ctx.supports_ready) && Queue.is_empty ctx.pending_vals && Stack.is_empty ctx.trail
  then true
  else begin
    if not ctx.supports_ready then ensure_supports ctx;
    let alive = ref true and pops = ref 0 in
    while !alive && not (Queue.is_empty ctx.pending_vals) do
      poll ctx.budget !pops;
      incr pops;
      let y, w = Queue.pop ctx.pending_vals in
      (* Re-verify at dequeue time: a pop may have restored support since
         this candidate was enqueued, making the entry stale. *)
      if ctx.dom.(y).(w) && value_unsupported ctx y w then
        if not (remove_value ctx y w) then alive := false
    done;
    if not !alive then Queue.clear ctx.pending_vals;
    !alive
  end

let propagate ctx =
  Telemetry.count "ac.propagations" 1;
  propagate_ac4 ctx

let establish ctx =
  if ctx.n = 0 then true
  else if ctx.m = 0 then false
  else begin
    ensure_supports ctx;
    propagate_ac4 ctx
  end

let assign ctx x v =
  if not ctx.dom.(x).(v) then invalid_arg "Arc_consistency.assign: value not in domain";
  let alive = ref true in
  for w = 0 to ctx.m - 1 do
    if !alive && w <> v && ctx.dom.(x).(w) then
      if not (remove_value ctx x w) then alive := false
  done;
  !alive && propagate ctx

let push ctx = Stack.push (Stack.length ctx.trail) ctx.marks

let pop ctx =
  match Stack.pop_opt ctx.marks with
  | None -> invalid_arg "Arc_consistency.pop: no checkpoint"
  | Some mark ->
    while Stack.length ctx.trail > mark do
      let depth = Stack.length ctx.trail - 1 in
      let x, v = Stack.pop ctx.trail in
      ctx.dom.(x).(v) <- true;
      ctx.count.(x) <- ctx.count.(x) + 1;
      if ctx.supports_ready then
        if depth >= ctx.init_depth then begin
          Telemetry.count "ac.revives" 1;
          revive_supports ctx x v
        end
        else
          (* This entry predates the support build, so its effects were never
             counted; the counters can no longer be trusted and must be
             rebuilt before the next propagation. *)
          ctx.supports_ready <- false
    done

let all_singleton ctx =
  let ok = ref true in
  for x = 0 to ctx.n - 1 do
    if ctx.count.(x) <> 1 then ok := false
  done;
  !ok

let solution ctx =
  if not (all_singleton ctx) then
    invalid_arg "Arc_consistency.solution: domains not all singleton";
  Array.init ctx.n (fun x ->
      let v = ref (-1) in
      for w = 0 to ctx.m - 1 do
        if ctx.dom.(x).(w) then v := w
      done;
      !v)

let removal_count ctx = ctx.removals
