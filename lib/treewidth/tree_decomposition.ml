open Relational

type t = { bags : int list array; tree_edges : (int * int) list }

let node_count td = Array.length td.bags

let width td =
  Array.fold_left (fun acc bag -> max acc (List.length bag - 1)) (-1) td.bags

let adjacency td =
  let adj = Array.make (max (node_count td) 1) [] in
  List.iter
    (fun (u, v) ->
      adj.(u) <- v :: adj.(u);
      adj.(v) <- u :: adj.(v))
    td.tree_edges;
  adj

let is_tree td =
  let n = node_count td in
  n = 0
  || (List.length td.tree_edges = n - 1
     &&
     let adj = adjacency td in
     let seen = Array.make n false in
     let queue = Queue.create () in
     Queue.add 0 queue;
     seen.(0) <- true;
     let count = ref 0 in
     while not (Queue.is_empty queue) do
       let u = Queue.pop queue in
       incr count;
       List.iter
         (fun v ->
           if not seen.(v) then begin
             seen.(v) <- true;
             Queue.add v queue
           end)
         adj.(u)
     done;
     !count = n)

(* One pass over the bags instead of a search per vertex.  Once the tree
   is a tree, the nodes holding a vertex induce a forest, which is
   connected exactly when it has one edge fewer than nodes; an edge
   counts for [v] when both of its ends hold [v].  A group is looked up
   only among the nodes holding its least-held element. *)
let validate_common ~size ~covers td =
  is_tree td
  &&
  let bags =
    Array.map
      (fun bag -> List.sort_uniq Int.compare (List.filter (fun v -> v >= 0 && v < size) bag))
      td.bags
  in
  let holders = Array.make size [] in
  Array.iteri (fun t bag -> List.iter (fun v -> holders.(v) <- t :: holders.(v)) bag) bags;
  let held = Array.map List.length holders in
  let links = Array.make size 0 and mark = Array.make size (-1) in
  List.iteri
    (fun i (s, t) ->
      List.iter (fun v -> mark.(v) <- i) bags.(s);
      List.iter (fun v -> if mark.(v) = i then links.(v) <- links.(v) + 1) bags.(t))
    td.tree_edges;
  let rec connected v =
    v = size || (held.(v) > 0 && links.(v) = held.(v) - 1 && connected (v + 1))
  in
  connected 0
  && covers (function
       | [] -> node_count td > 0
       | v :: rest as group ->
         let v = List.fold_left (fun v u -> if held.(u) < held.(v) then u else v) v rest in
         List.exists (fun t -> List.for_all (fun u -> List.mem u bags.(t)) group) holders.(v))

let validate_graph g td =
  validate_common ~size:(Graph.size g) td ~covers:(fun has_bag ->
      List.for_all (fun (u, v) -> has_bag [ u; v ]) (Graph.edges g))

let validate_structure a td =
  validate_common ~size:(Structure.size a) td ~covers:(fun has_bag ->
      let ok = ref true in
      Structure.iter_tuples
        (fun _ t -> if !ok && not (has_bag (Tuple.elements t)) then ok := false)
        a;
      !ok)
