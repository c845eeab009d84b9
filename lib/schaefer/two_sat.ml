let check formula =
  if not (Cnf.is_two_cnf formula) then
    invalid_arg "Two_sat: clause with more than two literals"

(* Literal encoding: variable v -> nodes 2v (positive) and 2v+1 (negative). *)
let node_of l = (2 * l.Cnf.var) + if l.Cnf.sign then 0 else 1

let negate_node u = u lxor 1

let literal_of u = { Cnf.var = u / 2; sign = u land 1 = 0 }

(* Each edge carries the index of the clause it comes from; a unit clause
   [l] is the edge [not l -> l]. *)
let implication_graph formula =
  let succ = Array.make (2 * formula.Cnf.nvars) [] in
  let add u v k = succ.(u) <- (v, k) :: succ.(u) in
  List.iteri
    (fun k clause ->
      match clause with
      | [ l ] -> add (negate_node (node_of l)) (node_of l) k
      | [ l1; l2 ] ->
        add (negate_node (node_of l1)) (node_of l2) k;
        add (negate_node (node_of l2)) (node_of l1) k
      | _ -> invalid_arg "Two_sat.solve: empty clause")
    formula.Cnf.clauses;
  succ

(* Iterative Tarjan SCC; components are numbered in reverse topological
   order (sinks first). *)
let tarjan succ =
  let n = Array.length succ in
  let index = Array.make n (-1) in
  let lowlink = Array.make n 0 in
  let on_stack = Array.make n false in
  let comp = Array.make n (-1) in
  let stack = Stack.create () in
  let counter = ref 0 and ncomp = ref 0 in
  for root = 0 to n - 1 do
    if index.(root) < 0 then begin
      (* Explicit DFS stack: (node, remaining successors). *)
      let call = Stack.create () in
      let start v =
        index.(v) <- !counter;
        lowlink.(v) <- !counter;
        incr counter;
        Stack.push v stack;
        on_stack.(v) <- true;
        Stack.push (v, ref succ.(v)) call
      in
      start root;
      while not (Stack.is_empty call) do
        let v, rest = Stack.top call in
        match !rest with
        | (w, _) :: tl ->
          rest := tl;
          if index.(w) < 0 then start w
          else if on_stack.(w) then lowlink.(v) <- min lowlink.(v) index.(w)
        | [] ->
          ignore (Stack.pop call);
          if lowlink.(v) = index.(v) then begin
            let continue_ = ref true in
            while !continue_ do
              let w = Stack.pop stack in
              on_stack.(w) <- false;
              comp.(w) <- !ncomp;
              if w = v then continue_ := false
            done;
            incr ncomp
          end;
          if not (Stack.is_empty call) then begin
            let parent, _ = Stack.top call in
            lowlink.(parent) <- min lowlink.(parent) lowlink.(v)
          end
      done
    end
  done;
  comp

(* Shortest implication path from [start] to [goal] by BFS, as the
   (clause, implied literal) steps after [start]; [goal] must be
   reachable. *)
let path succ start goal =
  let via = Array.make (Array.length succ) None in
  let queue = Queue.create () in
  Queue.add start queue;
  while via.(goal) = None do
    let u = Queue.pop queue in
    List.iter
      (fun (v, k) ->
        if via.(v) = None then begin
          via.(v) <- Some (u, k);
          Queue.add v queue
        end)
      succ.(u)
  done;
  let rec back acc v =
    if v = start then acc
    else
      match via.(v) with
      | Some (u, k) -> back ((k, literal_of v) :: acc) u
      | None -> assert false
  in
  back [] goal

type refutation = {
  pivot : Cnf.literal;
  forward : (int * Cnf.literal) list;
  backward : (int * Cnf.literal) list;
}

let solve formula =
  check formula;
  let succ = implication_graph formula in
  let comp = tarjan succ in
  let n = formula.Cnf.nvars in
  let rec assign v acc =
    if v >= n then Ok acc
    else if comp.(2 * v) = comp.((2 * v) + 1) then
      (* Both literals share a component, so each implies the other. *)
      Error
        {
          pivot = Cnf.pos v;
          forward = path succ (2 * v) ((2 * v) + 1);
          backward = path succ ((2 * v) + 1) (2 * v);
        }
    else begin
      (* Tarjan numbers sinks first; the literal whose component comes
         first is implied by the other, so make it the true one. *)
      acc.(v) <- comp.(2 * v) < comp.((2 * v) + 1);
      assign (v + 1) acc
    end
  in
  assign 0 (Array.make n false)
