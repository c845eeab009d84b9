(* Seeded frame generators for the three serve workloads.

   A workload is a fixed round of request families; the stream sends
   round after round, and every frame draws a fresh source (for
   [cold-sandboxed], a fresh template) from a RNG seeded by
   [(seed, workload, frame index)].  The expected answer of every frame
   is known by construction: planted colourings, levels and assignments
   for [sat]; odd cycles, cliques, long directed paths and contradiction
   gadgets for [unsat]; closed forms or the library's polynomial
   counting for enumeration counts. *)

module J = Serve.Json

type expect =
  | Verdict of { sat : bool; certify : bool }
  | Answers of { count : int; complete : bool }
      (** [count] is the total capped at the frame's limit; [complete]
          holds iff the total does not exceed the limit. *)

type frame = { family : string; line : string; expect : expect }

(* ------------------------------------------------------------------ *)
(* Structure text                                                       *)
(* ------------------------------------------------------------------ *)

let graph_text n edges =
  let b = Buffer.create (16 * (List.length edges + 2)) in
  Printf.bprintf b "size %d\nrel E 2\n" n;
  List.iter (fun (u, v) -> Printf.bprintf b "E %d %d\nE %d %d\n" u v v u) edges;
  Buffer.contents b

let clique_edges k =
  List.concat (List.init k (fun i -> List.init (k - 1 - i) (fun d -> (i, i + 1 + d))))

let cycle_edges n = List.init n (fun i -> (i, (i + 1) mod n))

(* A uniformly attached random tree on [n] vertices. *)
let tree_edges st n = List.init (n - 1) (fun i -> (Random.State.int st (i + 1), i + 1))

(* A random k-tree on [n] vertices, each edge kept with probability
   [keep] (so treewidth at most [k]). *)
let ktree_edges st ~n ~k ~keep =
  let cliques = ref [| Array.init k Fun.id |] in
  let edges = ref (clique_edges k) in
  for v = k to n - 1 do
    let base = !cliques.(Random.State.int st (Array.length !cliques)) in
    Array.iter (fun u -> edges := (u, v) :: !edges) base;
    let fresh =
      Array.init k (fun drop ->
          Array.of_list
            (v :: List.filteri (fun i _ -> i <> drop) (Array.to_list base)))
    in
    cliques := Array.append !cliques fresh
  done;
  if keep >= 1.0 then !edges
  else List.filter (fun _ -> Random.State.float st 1.0 < keep) !edges

(* A random graph properly coloured by the planted [colour] map into a
   target whose adjacency is [adjacent]: only edges between adjacent
   colours are drawn, so the colouring is a homomorphism. *)
let planted_edges st ~n ~p ~colour ~adjacent =
  let edges = ref [] in
  for u = 0 to n - 1 do
    for v = u + 1 to n - 1 do
      if adjacent colour.(u) colour.(v) && Random.State.float st 1.0 < p then
        edges := (u, v) :: !edges
    done
  done;
  !edges

(* ------------------------------------------------------------------ *)
(* Templates                                                            *)
(* ------------------------------------------------------------------ *)

let k2 = graph_text 2 (clique_edges 2)
let k3 = graph_text 3 (clique_edges 3)
let k4 = graph_text 4 (clique_edges 4)
let c5 = graph_text 5 (cycle_edges 5)

let t5 =
  "size 5\nrel E 2\n"
  ^ String.concat ""
      (List.map (fun (i, j) -> Printf.sprintf "E %d %d\n" i j) (clique_edges 5))

(* The 2-SAT clause relations over {0,1}: [A] is (x or y), [B] is
   (x or not y), [C] is (not x or not y).  All three are bijunctive, so
   the target is a Boolean Schaefer template. *)
let sat2 =
  "size 2\nrel A 2\nrel B 2\nrel C 2\n\
   A 0 1\nA 1 0\nA 1 1\n\
   B 0 0\nB 1 0\nB 1 1\n\
   C 0 0\nC 0 1\nC 1 0\n"

(* The Boolean query whose canonical database is a triangle: Q1 ⊆ Q2
   iff Q2's body graph is 3-colourable (Chandra–Merlin). *)
let q_triangle = "Q() :- E(A,B), E(B,A), E(B,C), E(C,B), E(A,C), E(C,A)"

let query_of_edges edges =
  "Q() :- "
  ^ String.concat ", "
      (List.concat_map
         (fun (u, v) -> [ Printf.sprintf "E(V%d,V%d)" u v; Printf.sprintf "E(V%d,V%d)" v u ])
         edges)

(* ------------------------------------------------------------------ *)
(* Frames                                                               *)
(* ------------------------------------------------------------------ *)

let solve_line ~id ~certify ~source ~target =
  J.to_string
    (J.Obj
       ([ ("id", J.Int id); ("op", J.String "solve"); ("source", J.String source);
          ("target", J.String target) ]
       @ if certify then [ ("certify", J.Bool true) ] else []))

let contain_line ~id ~certify ~q1 ~q2 =
  J.to_string
    (J.Obj
       ([ ("id", J.Int id); ("op", J.String "contain"); ("q1", J.String q1);
          ("q2", J.String q2) ]
       @ if certify then [ ("certify", J.Bool true) ] else []))

let enumerate_line ~id ~limit ~source ~target =
  J.to_string
    (J.Obj
       [ ("id", J.Int id); ("op", J.String "enumerate"); ("source", J.String source);
         ("target", J.String target); ("limit", J.Int limit) ])

type family = {
  name : string;
  make :
    Random.State.t -> id:int -> certify:bool -> fresh:(string -> bool) -> string * expect;
      (** The frame line and its expected answer.  [fresh text] holds the
          first time the stream meets a canonical structure text. *)
}

let solve_family name gen =
  {
    name;
    make =
      (fun st ~id ~certify ~fresh ->
        let source, target, sat = gen st ~fresh in
        (solve_line ~id ~certify ~source ~target, Verdict { sat; certify }));
  }

(* --- hot-templates: fresh sources against warm templates ------------ *)

(* Random bipartite graph: sat into K2 (Hell–Nešetřil, bipartite side). *)
let bip_k2 ~n ~p =
  solve_family "bipartite-k2" (fun st ~fresh:_ ->
      let colour = Array.init n (fun _ -> Random.State.int st 2) in
      (graph_text n (planted_edges st ~n ~p ~colour ~adjacent:( <> )), k2, true))

(* The same with one odd cycle threaded through: unsat into K2. *)
let odd_k2 ~n ~p ~cycle =
  solve_family "odd-cycle-k2" (fun st ~fresh:_ ->
      let colour = Array.init n (fun _ -> Random.State.int st 2) in
      let edges = planted_edges st ~n ~p ~colour ~adjacent:( <> ) in
      let start = n - cycle in
      let odd = List.map (fun (u, v) -> (start + u, start + v)) (cycle_edges cycle) in
      (graph_text n (odd @ edges), k2, false))

(* Trees into K3: acyclic sources, always sat. *)
let tree_k3 ~n =
  solve_family "tree-k3" (fun st ~fresh:_ -> (graph_text n (tree_edges st n), k3, true))

(* Partial 3-trees into K4 (treewidth ≤ 3, so 4-colourable): sat. *)
let ktree_k4 ~n ~keep =
  solve_family "3-tree-k4" (fun st ~fresh:_ -> (graph_text n (ktree_edges st ~n ~k:3 ~keep), k4, true))

(* Full 3-trees contain K4, so none maps into K3: unsat. *)
let ktree_k3 ~n =
  solve_family "3-tree-k3" (fun st ~fresh:_ ->
      (graph_text n (ktree_edges st ~n ~k:3 ~keep:1.0), k3, false))

(* 2-SAT with a planted assignment (sat), or with a four-clause
   contradiction on two variables added (unsat). *)
let two_sat ~vars ~clauses ~sat =
  solve_family
    (if sat then "2sat-sat" else "2sat-unsat")
    (fun st ~fresh:_ ->
      let value = Array.init vars (fun _ -> Random.State.bool st) in
      let b = Buffer.create (16 * clauses) in
      Printf.bprintf b "size %d\nrel A 2\nrel B 2\nrel C 2\n" vars;
      let added = ref 0 in
      while !added < clauses do
        let x = Random.State.int st vars and y = Random.State.int st vars in
        let rel, holds =
          match Random.State.int st 3 with
          | 0 -> ("A", value.(x) || value.(y))
          | 1 -> ("B", value.(x) || not value.(y))
          | _ -> ("C", (not value.(x)) || not value.(y))
        in
        if x <> y && holds then begin
          Printf.bprintf b "%s %d %d\n" rel x y;
          incr added
        end
      done;
      if not sat then Buffer.add_string b "A 0 1\nB 0 1\nB 1 0\nC 0 1\n";
      (Buffer.contents b, sat2, sat))

(* Random DAGs into the transitive tournament T5 (edges i -> j for
   i < j), which admits exactly the DAGs whose longest path has at most
   5 vertices.  The unsat side threads a 6-vertex directed path through
   the graph; arc consistency (the 2-pebble game) refutes it, and the
   random forward edges keep the treewidth above the DP route's cap.
   The sat side draws forward edges between planted levels 0..4 only. *)
let dag_t5 ~n ~p ~sat =
  solve_family
    (if sat then "leveled-dag-t5" else "long-path-dag-t5")
    (fun st ~fresh:_ ->
      let level = Array.init n (fun _ -> Random.State.int st 5) in
      let b = Buffer.create (16 * n) in
      Printf.bprintf b "size %d\nrel E 2\n" n;
      for u = 0 to n - 1 do
        for v = 0 to n - 1 do
          let forward = if sat then level.(u) < level.(v) else u < v in
          if forward && Random.State.float st 1.0 < p then Printf.bprintf b "E %d %d\n" u v
        done
      done;
      if not sat then for i = 0 to 4 do Printf.bprintf b "E %d %d\n" i (i + 1) done;
      (Buffer.contents b, t5, sat))

(* Planted C5-colourings of random graphs, sat by construction.  Most
   are left to MAC backtracking; after the source shrink some fall to
   the DP or acyclic routes. *)
let planted_c5 ~n ~p =
  solve_family "planted-c5" (fun st ~fresh:_ ->
      let colour = Array.init n (fun _ -> Random.State.int st 5) in
      let adjacent a b = (a - b + 5) mod 5 = 1 || (b - a + 5) mod 5 = 1 in
      (graph_text n (planted_edges st ~n ~p ~colour ~adjacent), c5, true))

(* Containment into the triangle query: Q_triangle ⊆ Q2 iff Q2's body
   is 3-colourable.  Partial 2-trees are; full 3-trees contain K4. *)
let contain_triangle ~n ~sat =
  {
    name = (if sat then "contain-2-tree" else "contain-3-tree");
    make =
      (fun st ~id ~certify ~fresh:_ ->
        let edges =
          if sat then ktree_edges st ~n ~k:2 ~keep:1.0
          else ktree_edges st ~n ~k:3 ~keep:1.0
        in
        ( contain_line ~id ~certify ~q1:q_triangle ~q2:(query_of_edges edges),
          Verdict { sat; certify } ));
  }

(* --- cold-sandboxed: a never-seen template on every frame ----------- *)

(* Random templates on [m] vertices.  [fresh] rejects a canonical text
   the stream has produced before, so every frame misses the cache. *)
let random_template st ~fresh ~m ~p ~triangle =
  let rec draw () =
    let edges = ref (if triangle then clique_edges 3 else []) in
    let colour = Array.init m (fun i -> if i < 2 then i else Random.State.int st 2) in
    for u = 0 to m - 1 do
      for v = u + 1 to m - 1 do
        let allowed = triangle || colour.(u) <> colour.(v) in
        if allowed && (u >= 3 || v >= 3 || not triangle) && Random.State.float st 1.0 < p
        then edges := (u, v) :: !edges
      done
    done;
    let edges = if triangle || List.mem (0, 1) !edges then !edges else (0, 1) :: !edges in
    let text = graph_text m edges in
    if fresh (Relational.Structure_text.print (Relational.Structure_text.parse text))
    then text
    else draw ()
  in
  draw ()

let cold_family name ~m ~p ~triangle ~source ~sat =
  solve_family name (fun st ~fresh ->
      let target = random_template st ~fresh ~m ~p ~triangle in
      (source, target, sat))

(* ------------------------------------------------------------------ *)
(* enumerate-stream: large answer sets into K3 / K4                     *)
(* ------------------------------------------------------------------ *)

let pow b e = List.fold_left (fun acc _ -> acc * b) 1 (List.init e Fun.id)

let enum_family name ~limit gen =
  {
    name;
    make =
      (fun st ~id ~certify:_ ~fresh:_ ->
        let source, target, total = gen st in
        ( enumerate_line ~id ~limit ~source ~target,
          Answers { count = min total limit; complete = total <= limit } ));
  }

(* A tree on n vertices has 3·2^(n-1) proper 3-colourings. *)
let enum_tree_k3 ~n ~limit =
  enum_family "tree-k3-stream" ~limit (fun st ->
      (graph_text n (tree_edges st n), k3, 3 * pow 2 (n - 1)))

(* Partial 2-trees into K3: counted by the library's tree-decomposition
   DP (polynomial, no enumeration). *)
let enum_ktree_k3 ~n ~keep ~limit =
  enum_family "2-tree-k3-stream" ~limit (fun st ->
      let text = graph_text n (ktree_edges st ~n ~k:2 ~keep) in
      let total =
        Enumerate.count
          (Relational.Structure_text.parse text)
          (Relational.Structure_text.parse k3)
      in
      (text, k3, total))

(* K_{2,2,2,2} (treewidth 6, so only backtracking applies) with a
   random tree of m extra vertices hanging off it, into K4: the four
   parts take the four colours in 4! ways, and each tree vertex has 3
   colours left given its parent's, so there are 24·3^m answers. *)
let enum_multipartite_k4 ~m ~limit =
  enum_family "k2222-k4-stream" ~limit (fun st ->
      let core = ref [] in
      for u = 0 to 7 do
        for v = u + 1 to 7 do
          if u / 2 <> v / 2 then core := (u, v) :: !core
        done
      done;
      let tree =
        List.init m (fun i -> (Random.State.int st (8 + i), 8 + i))
      in
      (graph_text (8 + m) (!core @ tree), k4, 24 * pow 3 m))

(* ------------------------------------------------------------------ *)
(* Workloads                                                            *)
(* ------------------------------------------------------------------ *)

type workload = {
  wname : string;
  tag : int;  (** Mixed into every frame's RNG seed. *)
  sandbox : bool;
  templates : (string * string) list;
      (** Warm-manifest entries (file name, structure text). *)
  families : family array;  (** One round: frame [i] is family [i mod |families|]. *)
  certify_every : int;  (** Solve frames set [certify] in every k-th round. *)
  warmup_frames : int;  (** Untimed frames sent before the timed phase. *)
  fresh_templates : bool;
      (** Every frame brings a template the daemon has not seen: each
          lookup misses and (full cache) evicts.  Otherwise every lookup
          hits a warm template. *)
}

let containment_template =
  let q1 = Cq.Parser.parse q_triangle in
  Relational.Structure_text.print (snd (Core.Solver.containment_instance q1 q1))

let hot =
  let families =
    [|
      bip_k2 ~n:46 ~p:0.1;
      odd_k2 ~n:40 ~p:0.1 ~cycle:9;
      tree_k3 ~n:56;
      ktree_k4 ~n:27 ~keep:0.8;
      ktree_k3 ~n:30;
      two_sat ~vars:62 ~clauses:124 ~sat:true;
      two_sat ~vars:60 ~clauses:120 ~sat:false;
      dag_t5 ~n:24 ~p:0.3 ~sat:true;
      dag_t5 ~n:20 ~p:0.3 ~sat:false;
      planted_c5 ~n:26 ~p:0.5;
      contain_triangle ~n:28 ~sat:true;
      contain_triangle ~n:22 ~sat:false;
    |]
  in
  {
    wname = "hot-templates";
    tag = 1;
    sandbox = false;
    templates =
      [ ("k2.st", k2); ("k3.st", k3); ("k4.st", k4); ("c5.st", c5); ("t5.st", t5); ("sat2.st", sat2);
        ("triangle-query.st", containment_template) ];
    families;
    certify_every = 2;
    warmup_frames = 2 * Array.length families;
    fresh_templates = false;
  }

let cold =
  let families =
    [|
      cold_family "c5-into-new-triangle" ~m:10 ~p:0.35 ~triangle:true
        ~source:c5 ~sat:true;
      cold_family "k3-into-new-triangle" ~m:10 ~p:0.35 ~triangle:true
        ~source:k3 ~sat:true;
      cold_family "c5-into-new-bipartite" ~m:12 ~p:0.5 ~triangle:false
        ~source:c5 ~sat:false;
      cold_family "k2-into-new-bipartite" ~m:12 ~p:0.5 ~triangle:false
        ~source:k2 ~sat:true;
    |]
  in
  {
    wname = "cold-sandboxed";
    tag = 2;
    sandbox = true;
    templates = [];
    families;
    certify_every = 2;
    (* More than the daemon's default cache capacity (64), so the LRU is
       full and every timed miss evicts. *)
    warmup_frames = 80;
    fresh_templates = true;
  }

let enumerate =
  let families =
    [|
      enum_tree_k3 ~n:40 ~limit:128;
      enum_ktree_k3 ~n:30 ~keep:0.7 ~limit:128;
      enum_multipartite_k4 ~m:6 ~limit:128;
    |]
  in
  {
    wname = "enumerate-stream";
    tag = 3;
    sandbox = false;
    templates = [ ("k3.st", k3); ("k4.st", k4) ];
    families;
    certify_every = 0;
    warmup_frames = 2 * Array.length families;
    fresh_templates = false;
  }

let all = [ hot; cold; enumerate ]
let workload name = List.find_opt (fun w -> w.wname = name) all

(* The frame stream: frame [i] is family [i mod |families|] drawn from
   its own RNG, so two streams of one seed are identical. *)
let stream w ~seed =
  let next = ref 0 in
  let seen = Hashtbl.create 1024 in
  let fresh text =
    let unseen = not (Hashtbl.mem seen text) in
    if unseen then Hashtbl.add seen text ();
    unseen
  in
  fun () ->
    let i = !next in
    incr next;
    let n = Array.length w.families in
    let f = w.families.(i mod n) in
    let certify = w.certify_every > 0 && (i / n) mod w.certify_every = 1 in
    let st = Random.State.make [| seed; w.tag; i |] in
    let line, expect = f.make st ~id:i ~certify ~fresh in
    { family = f.name; line; expect }
