module Smap = Map.Make (String)

type t = { vocab : Vocabulary.t; size : int; rels : Relation.t Smap.t }

let create vocab ~size =
  if size < 0 then invalid_arg "Structure.create: negative size";
  let rels =
    List.fold_left
      (fun acc (name, arity) -> Smap.add name (Relation.empty arity) acc)
      Smap.empty (Vocabulary.symbols vocab)
  in
  { vocab; size; rels }

let vocabulary a = a.vocab

let size a = a.size

let universe a = List.init a.size Fun.id

let relation a name =
  match Smap.find_opt name a.rels with
  | Some r -> r
  | None -> raise Not_found

let check_elements a t =
  Array.iter
    (fun x ->
      if x < 0 || x >= a.size then
        invalid_arg
          (Printf.sprintf "Structure: element %d outside universe of size %d" x
             a.size))
    t

let add_tuple a name t =
  let r =
    match Smap.find_opt name a.rels with
    | Some r -> r
    | None -> invalid_arg ("Structure.add_tuple: unknown symbol " ^ name)
  in
  check_elements a t;
  { a with rels = Smap.add name (Relation.add r t) a.rels }

let of_relations vocab ~size rels =
  List.fold_left
    (fun acc (name, tuples) ->
      List.fold_left (fun acc t -> add_tuple acc name t) acc tuples)
    (create vocab ~size) rels

let index a name = Relation.index (relation a name)

let mem_tuple a name t = Relation.mem (relation a name) t

let total_tuples a = Smap.fold (fun _ r acc -> acc + Relation.cardinal r) a.rels 0

let norm a =
  Smap.fold (fun _ r acc -> acc + (Relation.cardinal r * Relation.arity r)) a.rels a.size

let fold_tuples f a init =
  Smap.fold (fun name r acc -> Relation.fold (fun t acc -> f name t acc) r acc) a.rels init

let facts a = List.rev (fold_tuples (fun name t acc -> (name, t) :: acc) a [])

let iter_tuples f a = Smap.iter (fun name r -> Relation.iter (fun t -> f name t) r) a.rels

let equal a b =
  a.size = b.size
  && Vocabulary.equal a.vocab b.vocab
  && Smap.for_all (fun name r -> Relation.equal r (relation b name)) a.rels

let induced a elems =
  List.iter
    (fun x ->
      if x < 0 || x >= a.size then invalid_arg "Structure.induced: element out of range")
    elems;
  let distinct =
    let seen = Hashtbl.create (List.length elems) in
    List.filter
      (fun x ->
        if Hashtbl.mem seen x then false
        else begin
          Hashtbl.add seen x ();
          true
        end)
      elems
  in
  let renum = Hashtbl.create (List.length distinct) in
  List.iteri (fun i x -> Hashtbl.add renum x i) distinct;
  let base = create a.vocab ~size:(List.length distinct) in
  fold_tuples
    (fun name t acc ->
      if Array.for_all (Hashtbl.mem renum) t then
        add_tuple acc name (Array.map (Hashtbl.find renum) t)
      else acc)
    a base

let map_universe a ~size f =
  let base = create a.vocab ~size in
  fold_tuples (fun name t acc -> add_tuple acc name (Array.map f t)) a base

let disjoint_union a b =
  if not (Vocabulary.equal a.vocab b.vocab) then
    invalid_arg "Structure.disjoint_union: vocabulary mismatch";
  let base = create a.vocab ~size:(a.size + b.size) in
  let with_a = fold_tuples (fun name t acc -> add_tuple acc name t) a base in
  fold_tuples
    (fun name t acc -> add_tuple acc name (Array.map (fun x -> x + a.size) t))
    b with_a

let gaifman_edges a =
  let edges = Hashtbl.create 64 in
  iter_tuples
    (fun _ t ->
      let elems = Tuple.elements t in
      List.iter
        (fun u ->
          List.iter
            (fun v -> if u <> v then Hashtbl.replace edges (min u v, max u v) ())
            elems)
        elems)
    a;
  List.sort compare (Hashtbl.fold (fun e () acc -> e :: acc) edges [])

let incidence_edges a =
  let next = ref a.size in
  let edges = ref [] in
  iter_tuples
    (fun _ t ->
      let node = !next in
      incr next;
      List.iter (fun x -> edges := (x, node) :: !edges) (Tuple.elements t))
    a;
  (!next, List.rev !edges)

let is_valid a =
  Smap.for_all
    (fun name r ->
      Vocabulary.mem a.vocab name
      && Relation.arity r = Vocabulary.arity a.vocab name
      && Relation.for_all (fun t -> Array.for_all (fun x -> x >= 0 && x < a.size) t) r)
    a.rels
  && List.for_all (fun (name, _) -> Smap.mem name a.rels) (Vocabulary.symbols a.vocab)

let pp ppf a =
  Format.fprintf ppf "@[<v>universe: %d@,%a@]" a.size
    (Format.pp_print_list
       ~pp_sep:Format.pp_print_cut
       (fun ppf (name, r) -> Format.fprintf ppf "%s = %a" name Relation.pp r))
    (Smap.bindings a.rels)
