(* Compact-table propagation (Demeulenaere et al., CP 2016).  Each source
   atom keeps a bitset of the target tuples still live under the current
   domains; a tuple dies when the value at one of its positions leaves
   that position's domain.  A value is supported at a position of an
   atom iff its support mask meets the atom's live set. *)

let word_bits = Sys.int_size

(* The support masks of one position of a target relation, in compressed
   sparse rows: the tuples carrying [v] at the position sit in words
   [idx.(i)] under bits [bits.(i)], for [i] from [start.(v)] to
   [start.(v + 1) - 1], words ascending. *)
type column = {
  start : int array;
  idx : int array;
  bits : int array;
}

(* Target side of one relation symbol, shared by every source atom over
   it. *)
type target_info = {
  tuples : Tuple.t array;
  columns : column array;
}

(* One constraint per source atom R(t).  [live] is the reversible bitset
   of the target tuples whose every position holds a value of that
   position's domain.  [saved.(k)] is
   the checkpoint that last logged word [k], so a word is logged once
   per checkpoint however often it shrinks.  [symbol] names the atom's
   relation, so a removal can be explained by the fact it came from. *)
type constr = {
  symbol : string;
  atom : Tuple.t;
  info : target_info;
  live : int array;
  saved : int array;
}

type t = {
  a : Structure.t;
  b : Structure.t;
  n : int;
  m : int;
  dom : Bytes.t array;
  count : int array;
  constrs : constr array;
  occ : (int * int list) list array;
  (* Undo log, three ints an entry: [(x, v, -1)] for a value removed from
     [x]'s domain, [(ci, old, k)] for word [k] of constraint [ci]'s live
     set before it first lost tuples under the current checkpoint.
     Checkpoints are numbered from 1 as they are pushed, never reused;
     [marks] holds the log length and the number of the checkpoint each
     pushed one hides.  Nothing is logged while no checkpoint is
     pending: no pop can return there. *)
  mutable undo : int array;
  mutable undo_len : int;
  mutable checkpoint : int;
  mutable pushed : int;
  marks : (int * int) Stack.t;
  (* The number of checkpoints pending at the last [establish], or -1
     once a pop went below it: only values queued by dying tuples are
     checked again, so [assign] needs an established context. *)
  mutable established : int;
  (* Values found unsupported, with the constraint and position that no
     longer support them. *)
  pending : (int * int * int * int) Queue.t;
  budget : Budget.t;
  explain : (int -> int -> string -> Tuple.t -> unit) option;
}

let build_column m tuples j =
  let start = Array.make (m + 1) 0 and last = Array.make m (-1) in
  let each_tuple f =
    Array.iteri
      (fun ti (tt : Tuple.t) ->
        let v = tt.(j) and k = ti / word_bits in
        f v k (last.(v) <> k) (ti mod word_bits);
        last.(v) <- k)
      tuples
  in
  each_tuple (fun v _ fresh _ -> if fresh then start.(v + 1) <- start.(v + 1) + 1);
  for v = 1 to m do
    start.(v) <- start.(v) + start.(v - 1)
  done;
  let idx = Array.make start.(m) 0 and bits = Array.make start.(m) 0 in
  let fill = Array.sub start 0 m in
  Array.fill last 0 m (-1);
  each_tuple (fun v k fresh bit ->
      if fresh then begin
        idx.(fill.(v)) <- k;
        fill.(v) <- fill.(v) + 1
      end;
      bits.(fill.(v) - 1) <- bits.(fill.(v) - 1) lor (1 lsl bit));
  { start; idx; bits }

let full_table count =
  Array.init
    ((count + word_bits - 1) / word_bits)
    (fun k ->
      let r = count - (k * word_bits) in
      if r >= word_bits then -1 else (1 lsl r) - 1)

(* Building the constraints, and propagating, can each take seconds on a
   large pair, so every 256 constraints or queue pops they read the
   budget's deadline and cancellation flag.  They tick no nodes and
   ignore the node limit: the search that owns the context counts its
   nodes and decides when they run out. *)
let poll budget i =
  if i land 255 = 255 then
    match Budget.status budget with
    | Some ((Budget.Deadline | Budget.Cancelled) as reason) ->
      raise (Budget.Exhausted reason)
    | Some Budget.Node_limit | None -> ()

let create ?(budget = Budget.unlimited) ?explain a b =
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
        | r when Relation.arity r = arity -> Array.of_list (Relation.elements r)
        | _ -> [||]
        | exception Not_found -> [||]
      in
      let info = { tuples; columns = Array.init arity (build_column m tuples) } in
      Hashtbl.replace infos name info;
      info
  in
  (* Nullary atoms constrain no element; the search checks them first. *)
  let acc = ref [] and built = ref 0 in
  Structure.iter_tuples
    (fun name t ->
      poll budget !built;
      incr built;
      if Array.length t > 0 then begin
        let info = info_for name (Array.length t) in
        let live = full_table (Array.length info.tuples) in
        acc :=
          {
            symbol = name;
            atom = t;
            info;
            live;
            saved = Array.make (Array.length live) 0;
          }
          :: !acc
      end)
    a;
  let constrs = Array.of_list (List.rev !acc) in
  (* Each element's constraints, with the positions it holds in each. *)
  let occ = Array.make (max n 1) [] in
  Array.iteri
    (fun ci c ->
      Array.iteri
        (fun j x ->
          let first = ref j in
          for i = j - 1 downto 0 do
            if c.atom.(i) = x then first := i
          done;
          if !first = j then begin
            let js = ref [] in
            for i = Array.length c.atom - 1 downto j do
              if c.atom.(i) = x then js := i :: !js
            done;
            occ.(x) <- (ci, !js) :: occ.(x)
          end)
        c.atom)
    constrs;
  {
    a;
    b;
    n;
    m;
    dom = Array.init (max n 1) (fun _ -> Bytes.make m '\001');
    count = Array.make (max n 1) m;
    constrs;
    occ;
    undo = Array.make 48 0;
    undo_len = 0;
    checkpoint = 0;
    pushed = 0;
    marks = Stack.create ();
    established = -1;
    pending = Queue.create ();
    budget;
    explain;
  }

let source ctx = ctx.a

let target ctx = ctx.b

let[@inline] dom_mem ctx x v = Bytes.get ctx.dom.(x) v <> '\000'

let dom_size ctx x = ctx.count.(x)

let dom_values ctx x =
  let acc = ref [] in
  for v = ctx.m - 1 downto 0 do
    if dom_mem ctx x v then acc := v :: !acc
  done;
  !acc

let save ctx p q r =
  if ctx.undo_len + 3 > Array.length ctx.undo then begin
    let bigger = Array.make (2 * Array.length ctx.undo) 0 in
    Array.blit ctx.undo 0 bigger 0 ctx.undo_len;
    ctx.undo <- bigger
  end;
  ctx.undo.(ctx.undo_len) <- p;
  ctx.undo.(ctx.undo_len + 1) <- q;
  ctx.undo.(ctx.undo_len + 2) <- r;
  ctx.undo_len <- ctx.undo_len + 3

(* Some entry of [col]'s rows [i] to [hi - 1] meets [live]. *)
let rec meets live col i hi =
  i < hi && (live.(col.idx.(i)) land col.bits.(i) <> 0 || meets live col (i + 1) hi)

(* Some live tuple of [c] carries [v] at position [j]. *)
let supported c j v =
  let col = c.info.columns.(j) in
  meets c.live col col.start.(v) col.start.(v + 1)

(* Index of the lowest set bit of [w <> 0], by a de Bruijn multiply on
   the 32-bit half that holds it: a shift loop over the word makes the
   dense E16 cascade about three times slower. *)
let debruijn =
  [| 0; 1; 28; 2; 29; 14; 24; 3; 30; 22; 20; 15; 25; 17; 4; 8;
     31; 27; 13; 23; 21; 19; 16; 7; 26; 12; 18; 6; 11; 5; 10; 9 |]

let[@inline] lowest_bit w =
  let low = w land -w in
  let half = low land 0xFFFF_FFFF in
  if half <> 0 then debruijn.(((half * 0x077C_B531) land 0xFFFF_FFFF) lsr 27)
  else 32 + debruijn.((((low lsr 32) * 0x077C_B531) land 0xFFFF_FFFF) lsr 27)

(* Removing [v] at position [j] of constraint [ci] kills the live tuples
   of its mask; every value such a tuple carried at a position where it
   is left without support is queued. *)
let kill ctx ci j v =
  let c = ctx.constrs.(ci) in
  let col = c.info.columns.(j) and live = c.live and tuples = c.info.tuples in
  let atom = c.atom in
  for i = col.start.(v) to col.start.(v + 1) - 1 do
    let k = col.idx.(i) in
    let old = live.(k) in
    let dead = ref (old land col.bits.(i)) in
    if !dead <> 0 then begin
      if c.saved.(k) <> ctx.checkpoint then begin
        c.saved.(k) <- ctx.checkpoint;
        save ctx ci old k
      end;
      live.(k) <- old lxor !dead;
      while !dead <> 0 do
        let bit = lowest_bit !dead in
        dead := !dead lxor (1 lsl bit);
        let tt = tuples.((k * word_bits) + bit) in
        for q = 0 to Array.length atom - 1 do
          let y = atom.(q) and w = tt.(q) in
          if dom_mem ctx y w && not (supported c q w) then
            Queue.add (y, w, ci, q) ctx.pending
        done
      done
    end
  done

let remove_value ctx x v =
  if dom_mem ctx x v then begin
    Bytes.set ctx.dom.(x) v '\000';
    ctx.count.(x) <- ctx.count.(x) - 1;
    Telemetry.count "ac.kills" 1;
    if ctx.checkpoint > 0 then save ctx x v (-1);
    List.iter (fun (ci, js) -> List.iter (fun j -> kill ctx ci j v) js) ctx.occ.(x);
    ctx.count.(x) > 0
  end
  else true

(* Each queued value is checked again, since a pop may have restored its
   support, and removed with the constraint that dropped it as the
   explanation. *)
let propagate ctx =
  Telemetry.count "ac.propagations" 1;
  let alive = ref true and pops = ref 0 in
  while !alive && not (Queue.is_empty ctx.pending) do
    poll ctx.budget !pops;
    incr pops;
    let y, w, ci, q = Queue.pop ctx.pending in
    let c = ctx.constrs.(ci) in
    if dom_mem ctx y w && not (supported c q w) then begin
      (match ctx.explain with Some f -> f y w c.symbol c.atom | None -> ());
      alive := remove_value ctx y w
    end
  done;
  if not !alive then Queue.clear ctx.pending;
  !alive

(* Queues every value of the current domains that some constraint does
   not support, then propagates. *)
let establish ctx =
  if ctx.n = 0 then true
  else if Array.exists (( = ) 0) ctx.count then false
  else begin
    Telemetry.count "ac.establishes" 1;
    ctx.established <- Stack.length ctx.marks;
    Queue.clear ctx.pending;
    Array.iteri
      (fun ci c ->
        poll ctx.budget ci;
        Array.iteri
          (fun q y ->
            for w = 0 to ctx.m - 1 do
              if dom_mem ctx y w && not (supported c q w) then
                Queue.add (y, w, ci, q) ctx.pending
            done)
          c.atom)
      ctx.constrs;
    propagate ctx
  end

let assign ctx x v =
  if ctx.established < 0 then invalid_arg "Arc_consistency.assign: context not established";
  if not (dom_mem ctx x v) then invalid_arg "Arc_consistency.assign: value not in domain";
  let alive = ref true in
  for w = 0 to ctx.m - 1 do
    if !alive && w <> v && dom_mem ctx x w then
      if not (remove_value ctx x w) then alive := false
  done;
  !alive && propagate ctx

let push ctx =
  Stack.push (ctx.undo_len, ctx.checkpoint) ctx.marks;
  ctx.pushed <- ctx.pushed + 1;
  ctx.checkpoint <- ctx.pushed

let pop ctx =
  match Stack.pop_opt ctx.marks with
  | None -> invalid_arg "Arc_consistency.pop: no checkpoint"
  | Some (mark, hidden) ->
    ctx.checkpoint <- hidden;
    if Stack.length ctx.marks < ctx.established then ctx.established <- -1;
    let u = ctx.undo in
    while ctx.undo_len > mark do
      let e = ctx.undo_len - 3 in
      ctx.undo_len <- e;
      if u.(e + 2) < 0 then begin
        Bytes.set ctx.dom.(u.(e)) u.(e + 1) '\001';
        ctx.count.(u.(e)) <- ctx.count.(u.(e)) + 1
      end
      else ctx.constrs.(u.(e)).live.(u.(e + 2)) <- u.(e + 1)
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
  Array.init ctx.n (fun x -> Bytes.index ctx.dom.(x) '\001')
