open Relational

module Iset = Set.Make (Int)

type join_forest = {
  facts : (string * Tuple.t) array;
  parent : int array;
}

(* [s] is a subset of [t]; both sorted ascending without repeats. *)
let subset s t =
  let ns = Array.length s and nt = Array.length t in
  let rec go i j =
    i = ns
    || (j < nt && if s.(i) = t.(j) then go (i + 1) (j + 1) else s.(i) > t.(j) && go i (j + 1))
  in
  go 0 0

(* GYO reduction.  Each round (a) deletes the vertices private to one
   live hyperedge, then (b) visits the live hyperedges in index order
   and folds each into the lowest-index other live hyperedge containing
   it, recording that container as its parent.  The hypergraph is
   acyclic iff at most one hyperedge survives.

   The rounds are the textbook full scan ([Oracle.Gyo]) made
   incremental, with the same output.  A container of a nonempty
   hyperedge holds its minimum vertex, so the search reads only the
   hyperedges indexed under that vertex, ascending.  A vertex turns
   private only when a hyperedge holding it is folded away, so (a)
   reads a worklist of such vertices.  A hyperedge that found no
   container gets one later only if it loses vertices (containers never
   grow), so (b) revisits only the hyperedges (a) shrank. *)
let join_forest a =
  let facts = Array.of_list (Structure.facts a) in
  let nfacts = Array.length facts and n = Structure.size a in
  let sets =
    Array.map (fun (_, t) -> Array.of_list (List.sort_uniq Int.compare (Array.to_list t))) facts
  in
  let alive = Array.make nfacts true and parent = Array.make nfacts (-1) in
  (* [live.(v)]: live hyperedges holding [v]; [holders.(v)]: every
     hyperedge that held [v] at the start, ascending. *)
  let live = Array.make n 0 and holders = Array.make n [] in
  for f = nfacts - 1 downto 0 do
    Array.iter
      (fun v ->
        live.(v) <- live.(v) + 1;
        holders.(v) <- f :: holders.(v))
      sets.(f)
  done;
  let private_ = ref (List.filter (fun v -> live.(v) = 1) (List.init n Fun.id)) in
  let rec alive_from f = if f < nfacts && not alive.(f) then alive_from (f + 1) else f in
  let lowest = ref 0 in
  let container e =
    match sets.(e) with
    | [||] ->
      (* Every live hyperedge contains the empty one. *)
      lowest := alive_from !lowest;
      let f = if !lowest = e then alive_from (e + 1) else !lowest in
      if f < nfacts then Some f else None
    | s -> List.find_opt (fun f -> f <> e && alive.(f) && subset s sets.(f)) holders.(s.(0))
  in
  let fold_into e f =
    alive.(e) <- false;
    parent.(e) <- f;
    Array.iter
      (fun v ->
        live.(v) <- live.(v) - 1;
        if live.(v) = 1 then private_ := v :: !private_)
      sets.(e)
  in
  let rec round visit =
    let shrunk =
      List.filter_map
        (fun v ->
          if live.(v) <> 1 then None
          else begin
            let f = List.find (fun f -> alive.(f) && Array.mem v sets.(f)) holders.(v) in
            sets.(f) <- Array.of_list (List.filter (( <> ) v) (Array.to_list sets.(f)));
            live.(v) <- 0;
            Some f
          end)
        !private_
    in
    private_ := [];
    List.iter
      (fun e -> if alive.(e) then Option.iter (fold_into e) (container e))
      (List.sort_uniq Int.compare (shrunk @ visit));
    if !private_ <> [] then round []
  in
  round (List.init nfacts Fun.id);
  let survivors = Array.fold_left (fun acc l -> if l then acc + 1 else acc) 0 alive in
  (* Every removed hyperedge recorded the container it was folded into as
     its parent; removal times order the chains, so this is a forest whose
     roots are the survivors.  This is the textbook GYO join tree. *)
  if survivors > 1 then None else Some { facts; parent }

let is_acyclic a = join_forest a <> None

let solve_with_forest ?(budget = Budget.unlimited) { facts; parent } a b =
  (* One tick per semi-join, charged up front: the forest has one node
     per fact. *)
  Array.iter (fun _ -> Budget.tick budget) facts;
  match fst (Join_eval.solve (Join_eval.of_forest a ~facts ~parent b)) with
  | Some h when not (Homomorphism.is_homomorphism a b h) ->
    (* The running-intersection property should make this impossible;
       fail loudly if the forest was somehow degenerate. *)
    invalid_arg "Hypergraph.solve_acyclic: extraction failed"
  | result -> result

let solve_acyclic a b =
  match join_forest a with
  | None -> invalid_arg "Hypergraph.solve_acyclic: source structure is not acyclic"
  | Some forest -> solve_with_forest forest a b

let generalized_hypertree_width_upper a =
  let n = Structure.size a in
  if n = 0 then 0
  else begin
    let g = Graph.of_edges ~size:n (Structure.gaifman_edges a) in
    let td = Option.get (Elimination.decomposition g) in
    let edge_sets =
      List.rev
        (Structure.fold_tuples
           (fun _ t acc -> Iset.of_list (Tuple.elements t) :: acc)
           a [])
    in
    (* Exact minimum cover of a small bag by hyperedges; vertices in no
       hyperedge need a singleton cover each. *)
    let cover_size bag =
      let bag_set = Iset.of_list bag in
      let candidates =
        List.filter (fun s -> not (Iset.is_empty (Iset.inter s bag_set))) edge_sets
        |> List.map (fun s -> Iset.inter s bag_set)
        |> List.sort_uniq Iset.compare
      in
      let coverable = List.fold_left Iset.union Iset.empty candidates in
      let isolated = Iset.cardinal (Iset.diff bag_set coverable) in
      let rec best remaining used bound =
        if Iset.is_empty remaining then min used bound
        else if used + 1 >= bound then bound
        else begin
          (* Branch on an uncovered vertex: some candidate must contain it. *)
          let v = Iset.min_elt remaining in
          List.fold_left
            (fun bound s ->
              if Iset.mem v s then best (Iset.diff remaining s) (used + 1) bound
              else bound)
            bound candidates
        end
      in
      isolated + best (Iset.inter bag_set coverable) 0 max_int
    in
    Array.fold_left
      (fun acc bag -> max acc (cover_size bag))
      0 td.Tree_decomposition.bags
  end
