open Relational

type tree = {
  size : int;
  vars : int array array;
  shared : int array array;
  up : int array array;
  children : (int * int array) list array;
  roots : int list;
  post : int array;
  rows : int -> (Tuple.t -> unit) -> unit;
}

let vars t = t.vars

(* Position of the first occurrence of [x] in [vars]. *)
let position vars x =
  let rec find i = if vars.(i) = x then i else find (i + 1) in
  find 0

let project (pos : int array) (r : Tuple.t) = Array.map (fun i -> r.(i)) pos

(* [kids.(u)] lists the children of [u] in visiting order; the post-order
   is the depth-first finishing order from the roots in index order. *)
let make ~size ~vars ~parent ~kids ~rows =
  let count = Array.length vars in
  let shared =
    Array.init count (fun u ->
        let p = parent.(u) in
        if p < 0 then [||]
        else
          Array.of_list
            (List.filter (fun x -> Array.mem x vars.(p)) (Tuple.elements vars.(u))))
  in
  let up = Array.mapi (fun u s -> Array.map (position vars.(u)) s) shared in
  let children =
    Array.mapi
      (fun u cs -> List.map (fun c -> (c, Array.map (position vars.(u)) shared.(c))) cs)
      kids
  in
  let post = ref [] in
  let rec visit u =
    List.iter visit kids.(u);
    post := u :: !post
  in
  let roots = List.filter (fun u -> parent.(u) < 0) (List.init count Fun.id) in
  List.iter visit roots;
  let post = Array.of_list (List.rev !post) in
  { size; vars; shared; up; children; roots; post; rows }

(* ------------------------------------------------------------------ *)
(* Join forest: one node per fact, one per element in no fact.         *)
(* ------------------------------------------------------------------ *)

let candidates b (name, (t : Tuple.t)) =
  let rel =
    match Structure.relation b name with
    | r when Relation.arity r = Array.length t -> r
    | _ | (exception Not_found) -> Relation.empty (Array.length t)
  in
  Relation.fold
    (fun (t' : Tuple.t) acc ->
      let ok = ref true in
      Array.iteri
        (fun i x ->
          Array.iteri (fun j y -> if x = y && t'.(i) <> t'.(j) then ok := false) t)
        t;
      if !ok then t' :: acc else acc)
    rel []

let of_forest ?(budget = Budget.unlimited) a ~facts ~parent b =
  let n = Structure.size a and m = Structure.size b in
  let covered = Array.make n false in
  Array.iter (fun (_, t) -> Array.iter (fun x -> covered.(x) <- true) t) facts;
  let free = List.filter (fun x -> not covered.(x)) (List.init n Fun.id) in
  let nfacts = Array.length facts in
  let vars =
    Array.append (Array.map snd facts) (Array.of_list (List.map (fun x -> [| x |]) free))
  in
  let parent = Array.append parent (Array.make (List.length free) (-1)) in
  let kids = Array.make (Array.length vars) [] in
  for u = Array.length vars - 1 downto 0 do
    if parent.(u) >= 0 then kids.(parent.(u)) <- u :: kids.(parent.(u))
  done;
  let rows u yield =
    let each r =
      Budget.tick budget;
      yield r
    in
    if u < nfacts then List.iter each (candidates b facts.(u))
    else
      for v = 0 to m - 1 do
        each [| v |]
      done
  in
  make ~size:n ~vars ~parent ~kids ~rows

(* ------------------------------------------------------------------ *)
(* Tree decomposition: one node per bag.                               *)
(* ------------------------------------------------------------------ *)

(* Depth-first from the least unvisited node of each component; each
   node's children keep their adjacency order, which the post-order of
   [make] follows. *)
let rooted_dfs td =
  let adj = Tree_decomposition.adjacency td in
  let count = Tree_decomposition.node_count td in
  let parent = Array.make count (-1) in
  let visited = Array.make count false in
  let rec dfs u p =
    visited.(u) <- true;
    parent.(u) <- p;
    List.iter (fun v -> if not visited.(v) then dfs v u) adj.(u)
  in
  for u = 0 to count - 1 do
    if not visited.(u) then dfs u (-1)
  done;
  (parent, Array.init count (fun u -> List.filter (fun v -> parent.(v) = u) adj.(u)))

let rooted td = fst (rooted_dfs td)

(* Rows: assignments of the sorted bag in lexicographic order, one tick
   each, kept when every check of the bag holds. *)
let of_bags ?(budget = Budget.unlimited) td ~size ~domain ~checks =
  let parent, kids = rooted_dfs td in
  let vars =
    Array.map (fun bag -> Array.of_list (List.sort_uniq Int.compare bag)) td.bags
  in
  let rows u yield =
    let bag = vars.(u) in
    let holds = checks bag in
    let d = Array.length bag in
    let image = Array.make d 0 in
    let rec assign i =
      if i = d then begin
        Budget.tick budget;
        if List.for_all (fun ok -> ok image) holds then yield (Array.copy image)
      end
      else
        for v = 0 to domain bag.(i) - 1 do
          image.(i) <- v;
          assign (i + 1)
        done
    in
    assign 0
  in
  make ~size ~vars ~parent ~kids ~rows

let of_decomposition ?budget td a b =
  let m = Structure.size b in
  let target_rel name =
    match Structure.relation b name with
    | r -> r
    | exception Not_found -> Relation.empty 0
  in
  (* A bag's checks: every fact of [a] inside it maps into [b]. *)
  let checks bag =
    List.rev
      (Structure.fold_tuples
         (fun name t acc ->
           if Array.for_all (fun x -> Array.mem x bag) t then
             let rel = target_rel name and pos = Array.map (position bag) t in
             (fun image -> Relation.mem rel (project pos image)) :: acc
           else acc)
         a [])
  in
  of_bags ?budget td ~size:(Structure.size a) ~domain:(fun _ -> m) ~checks

(* ------------------------------------------------------------------ *)
(* The bottom-up pass and the top-down descent.                        *)
(* ------------------------------------------------------------------ *)

type 'v store = {
  row : int -> Tuple.t -> 'v;
  join : 'v -> 'v -> 'v;
  add : 'v -> 'v -> 'v;
}

let bottom_up t store =
  let tables = Array.map (fun _ -> Tuple.Table.create 16) t.vars in
  let rec fill i =
    i = Array.length t.post
    ||
    let u = t.post.(i) in
    let tbl = tables.(u) in
    t.rows u (fun r ->
        (* A row survives when every child stores something under the
           key it induces; its value folds in what they store. *)
        let rec through v = function
          | [] ->
            let key = project t.up.(u) r in
            Tuple.Table.replace tbl key
              (match Tuple.Table.find_opt tbl key with
              | Some old -> store.add old v
              | None -> v)
          | (c, pos) :: rest -> (
            match Tuple.Table.find_opt tables.(c) (project pos r) with
            | Some w -> through (store.join v w) rest
            | None -> ())
        in
        through (store.row u r) t.children.(u));
    Tuple.Table.length tbl > 0 && fill (i + 1)
  in
  let ok = fill 0 in
  (tables, ok)

let root_values t tables =
  List.map (fun u -> Tuple.Table.find tables.(u) [||]) t.roots

(* Parents before children, each node's rows read off the table of its
   key under the rows already chosen above it.  The bottom-up pass kept a
   parent row only when every child stores something under the key it
   induces, so no lookup here fails and no branch dead-ends. *)
let descend ?budget t tables pick ~yield =
  let mapping = Array.make t.size 0 in
  let rec go i =
    if i < 0 then yield mapping
    else begin
      let u = t.post.(i) in
      let key = Array.map (fun x -> mapping.(x)) t.shared.(u) in
      List.iter
        (fun r ->
          Option.iter Budget.tick budget;
          Array.iteri (fun j x -> mapping.(x) <- r.(j)) t.vars.(u);
          go (i - 1))
        (pick (Tuple.Table.find tables.(u) key))
    end
  in
  go (Array.length t.post - 1)

let solve t =
  let first = { row = (fun _ r -> r); join = (fun v _ -> v); add = (fun old _ -> old) } in
  let tables, ok = bottom_up t first in
  let witness = ref None in
  if ok then
    descend t tables (fun r -> [ r ]) ~yield:(fun h -> witness := Some (Array.copy h));
  (!witness, Array.fold_left (fun acc tbl -> acc + Tuple.Table.length tbl) 0 tables)

let count t =
  let sum =
    {
      row = (fun _ _ -> 1);
      join = Homomorphism.checked_mul;
      add = Homomorphism.checked_add;
    }
  in
  let tables, ok = bottom_up t sum in
  if ok then List.fold_left Homomorphism.checked_mul 1 (root_values t tables) else 0

let enumerate ~budget t ~yield =
  let all =
    {
      row = (fun _ r -> [ r ]);
      join = (fun v _ -> v);
      add = (fun old v -> List.rev_append v old);
    }
  in
  let tables, ok = bottom_up t all in
  if ok then descend ~budget t tables Fun.id ~yield
