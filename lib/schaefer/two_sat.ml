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

let solve_phase formula =
  check formula;
  let n = formula.Cnf.nvars in
  let value = Array.make n (-1) in
  let occurs = Array.make n [] in
  let ok = ref true in
  List.iter
    (fun clause ->
      match clause with
      | [] -> ok := false
      | c -> List.iter (fun l -> occurs.(l.Cnf.var) <- c :: occurs.(l.Cnf.var)) c)
    formula.Cnf.clauses;
  if not !ok then None
  else begin
    let trail = Stack.create () in
    let queue = Queue.create () in
    let conflict = ref false in
    let set v b =
      if value.(v) = -1 then begin
        value.(v) <- (if b then 1 else 0);
        Stack.push v trail;
        Queue.add v queue
      end
      else if value.(v) <> if b then 1 else 0 then conflict := true
    in
    let lit_value l =
      match value.(l.Cnf.var) with
      | -1 -> -1
      | v -> if l.Cnf.sign then v else 1 - v
    in
    let propagate_from v0 b0 =
      conflict := false;
      Queue.clear queue;
      set v0 b0;
      while (not !conflict) && not (Queue.is_empty queue) do
        let v = Queue.pop queue in
        List.iter
          (fun clause ->
            if not !conflict then
              match clause with
              | [ l ] -> if lit_value l = 0 then conflict := true
              | [ l1; l2 ] ->
                let v1 = lit_value l1 and v2 = lit_value l2 in
                if v1 = 0 && v2 = 0 then conflict := true
                else if v1 = 0 && v2 = -1 then set l2.Cnf.var l2.Cnf.sign
                else if v2 = 0 && v1 = -1 then set l1.Cnf.var l1.Cnf.sign
              | _ -> assert false)
          occurs.(v)
      done;
      not !conflict
    in
    let undo_phase () =
      while not (Stack.is_empty trail) do
        value.(Stack.pop trail) <- -1
      done
    in
    (* Unit clauses must hold in every phase; seed them first. *)
    let seed_ok =
      List.for_all
        (fun clause ->
          match clause with
          | [ l ] ->
            (match lit_value l with
            | 0 -> false
            | 1 -> true
            | _ -> propagate_from l.Cnf.var l.Cnf.sign)
          | _ -> true)
        formula.Cnf.clauses
    in
    (* Keep seeded assignments permanently. *)
    Stack.clear trail;
    if not seed_ok then None
    else begin
      let rec phases v =
        if v >= n then Some (Array.map (fun x -> x = 1) value)
        else if value.(v) >= 0 then phases (v + 1)
        else if propagate_from v true then begin
          Stack.clear trail;
          phases (v + 1)
        end
        else begin
          undo_phase ();
          if propagate_from v false then begin
            Stack.clear trail;
            phases (v + 1)
          end
          else None
        end
      in
      phases 0
    end
  end
