open Relational

let edge_symbol g =
  match Vocabulary.symbols (Structure.vocabulary g) with
  | [ (name, 2) ] -> Some name
  | _ -> None

let is_undirected_graph g =
  match edge_symbol g with
  | None -> false
  | Some name ->
    Relation.for_all
      (fun t -> Relation.mem (Structure.relation g name) [| t.(1); t.(0) |])
      (Structure.relation g name)

let require_graph g =
  match edge_symbol g with
  | Some name when is_undirected_graph g -> name
  | _ -> invalid_arg "Graph_dichotomy: not an undirected graph"

let has_loop g =
  match edge_symbol g with
  | None -> false
  | Some name -> Relation.exists (fun t -> t.(0) = t.(1)) (Structure.relation g name)

(* 2-colour the symmetrized edge relation by BFS.  A loop [x] blocks it
   with the walk [x; x]; a BFS edge between two same-coloured vertices
   with the two tree paths up to their common root, a closed walk of odd
   length.  One tick of [budget] per vertex the BFS visits. *)
let colour_bfs ~budget g =
  let n = Structure.size g in
  let adj = Array.make (max n 1) [] in
  let loop = ref None in
  Structure.iter_tuples
    (fun _ t ->
      if t.(0) = t.(1) then (if !loop = None then loop := Some t.(0))
      else begin
        adj.(t.(0)) <- t.(1) :: adj.(t.(0));
        adj.(t.(1)) <- t.(0) :: adj.(t.(1))
      end)
    g;
  match !loop with
  | Some x -> Error [ x; x ]
  | None ->
    let colour = Array.make (max n 1) (-1) in
    let parent = Array.make (max n 1) (-1) in
    let conflict = ref None in
    let queue = Queue.create () in
    for start = 0 to n - 1 do
      if !conflict = None && colour.(start) < 0 then begin
        colour.(start) <- 0;
        Queue.add start queue;
        while !conflict = None && not (Queue.is_empty queue) do
          Budget.tick budget;
          let u = Queue.pop queue in
          List.iter
            (fun v ->
              if colour.(v) < 0 then begin
                colour.(v) <- 1 - colour.(u);
                parent.(v) <- u;
                Queue.add v queue
              end
              else if colour.(v) = colour.(u) && !conflict = None then
                conflict := Some (u, v))
            adj.(u)
        done
      end
    done;
    (match !conflict with
    | None -> Ok colour
    | Some (u, v) ->
      let rec to_root x = if x < 0 then [] else x :: to_root parent.(x) in
      Error (List.rev (to_root u) @ to_root v))

let two_colouring g = colour_bfs ~budget:Budget.unlimited g

let is_bipartite g = Result.is_ok (two_colouring g)

type verdict = Polynomial | Np_complete

let complexity h =
  ignore (require_graph h);
  if has_loop h || is_bipartite h then Polynomial else Np_complete

(* [Error] carries the refutation: a childless split on element 0 for an
   empty target, the empty edge relation cited by any edge of [g], or an
   odd closed walk of [g] against [h]'s 2-colouring. *)
let solve ?(budget = Budget.unlimited) g h =
  let symbol = require_graph h in
  let edge_rel = Structure.relation h symbol in
  let n = Structure.size g in
  match Relation.choose (Relation.filter (fun t -> t.(0) = t.(1)) edge_rel) with
  | Some loop -> Ok (Array.make n loop.(0))
  | None ->
    if Relation.is_empty edge_rel then begin
      (* Edgeless target: sources with facts cannot map. *)
      if Structure.size h = 0 && n > 0 then
        Error (Certificate.Search_tree (Certificate.Split { elem = 0; children = [] }))
      else if Structure.total_tuples g > 0 then
        Error (Option.get (Schaefer.Uniform.empty_relation_refutation g h))
      else Ok (Array.make n 0)
    end
    else
      match two_colouring h with
      | Error _ ->
        invalid_arg "Graph_dichotomy.solve: target is NP-complete (Hell-Nesetril)"
      | Ok colouring -> (
        (* Bipartite target with an edge: G -> H iff G is 2-colourable. *)
        match (colour_bfs ~budget g, Relation.choose edge_rel) with
        | Error walk, _ -> Error (Certificate.Odd_walk { symbol; walk; colouring })
        | Ok colour, Some edge ->
          Ok
            (Array.map (fun c -> if c = 0 then edge.(0) else edge.(1))
               (Array.sub colour 0 n))
        | Ok _, None -> assert false)
