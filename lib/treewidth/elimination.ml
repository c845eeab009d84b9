module Iset = Set.Make (Int)

(* The elimination scores.  [fill] counts the missing edges among the
   neighbors of [v], but only up to [stop]: the pass keeps a vertex only
   when it beats the best score so far, so counting further is waste. *)
let fill adj ~stop v =
  let nbrs = adj.(v) in
  let missing = ref 0 in
  (try
     Iset.iter
       (fun u ->
         let near = adj.(u) in
         Iset.iter
           (fun w ->
             if u < w && not (Iset.mem w near) then begin
               incr missing;
               if !missing >= stop then raise_notrace Exit
             end)
           nbrs)
       nbrs
   with Exit -> ());
  !missing

let degree adj ~stop:_ v = Iset.cardinal adj.(v)

(* The one elimination pass, over a mutable copy of the adjacency.  Each
   step picks the remaining vertex of least score, the lowest index among
   ties, and makes its neighbors a clique.  The bag of [v] is [v] plus its
   neighbors when it goes; its tree parent is the one of those neighbors
   eliminated first, or the next vertex in the order if it has none.  The
   width is the largest degree at elimination, so the pass stops at the
   first pick whose degree exceeds [cap], and that decline is exact. *)
let eliminate ~score ~cap g =
  let n = Graph.size g in
  let adj = Graph.adjacency g in
  let alive = Array.make n true in
  let order = Array.make n 0 and pos = Array.make n 0 in
  let later = Array.make n Iset.empty in
  let rec step i =
    i = n
    ||
    let best = ref (-1) and best_score = ref max_int and u = ref 0 in
    while !u < n && !best_score > 0 do
      if alive.(!u) then begin
        let s = score adj ~stop:!best_score !u in
        if s < !best_score then begin
          best := !u;
          best_score := s
        end
      end;
      incr u
    done;
    let v = !best in
    let nbrs = adj.(v) in
    Iset.cardinal nbrs <= cap
    && begin
         Iset.iter
           (fun u -> adj.(u) <- Iset.union (Iset.remove v adj.(u)) (Iset.remove u nbrs))
           nbrs;
         adj.(v) <- Iset.empty;
         alive.(v) <- false;
         order.(i) <- v;
         pos.(v) <- i;
         later.(v) <- nbrs;
         step (i + 1)
       end
  in
  if not (step 0) then None
  else begin
    let bags = Array.make (max n 1) [] in
    Array.iteri (fun v nbrs -> bags.(v) <- Iset.elements (Iset.add v nbrs)) later;
    let parent v i =
      if Iset.is_empty later.(v) then order.(i + 1)
      else
        Iset.fold
          (fun u best -> if pos.(u) < pos.(best) then u else best)
          later.(v) (Iset.min_elt later.(v))
    in
    let tree_edges =
      List.init (max 0 (n - 1)) (fun i ->
          let v = order.(i) in
          (v, parent v i))
    in
    Some { Tree_decomposition.bags; tree_edges }
  end

let decomposition ?(heuristic = `Min_fill) ?(cap = max_int) g =
  let score = match heuristic with `Min_degree -> degree | `Min_fill -> fill in
  eliminate ~score ~cap g

let treewidth_upper_bound g =
  let width heuristic =
    Tree_decomposition.width (Option.get (decomposition ~heuristic g))
  in
  min (width `Min_degree) (width `Min_fill)

(* Exact treewidth: f(S) = best width over orders that eliminate exactly the
   vertices of S first, where the elimination degree of v after S is the
   number of vertices outside S reachable from v through S.  Then
   tw(G) = f(V).  Memoized over subsets encoded as bit masks. *)
let treewidth_exact g =
  let n = Graph.size g in
  if n > 20 then invalid_arg "Elimination.treewidth_exact: more than 20 vertices";
  if n = 0 then -1
  else begin
    (* Degree of v when eliminated after the vertices of [mask]: vertices
       outside mask (other than v) reachable from v via vertices in mask. *)
    let elimination_degree v mask =
      let seen = ref (1 lsl v) in
      let queue = Queue.create () in
      Queue.add v queue;
      let count = ref 0 in
      while not (Queue.is_empty queue) do
        let u = Queue.pop queue in
        List.iter
          (fun w ->
            if !seen land (1 lsl w) = 0 then begin
              seen := !seen lor (1 lsl w);
              if mask land (1 lsl w) <> 0 then Queue.add w queue else incr count
            end)
          (Graph.neighbors g u)
      done;
      !count
    in
    let memo = Hashtbl.create 4096 in
    let rec f mask =
      if mask = 0 then -1
      else
        match Hashtbl.find_opt memo mask with
        | Some w -> w
        | None ->
          let best = ref max_int in
          for v = 0 to n - 1 do
            if mask land (1 lsl v) <> 0 then begin
              let rest = mask lxor (1 lsl v) in
              let w = max (f rest) (elimination_degree v rest) in
              if w < !best then best := w
            end
          done;
          Hashtbl.replace memo mask !best;
          !best
    in
    f ((1 lsl n) - 1)
  end
