open Relational

type tgd = { body : Query.atom list; head : Query.atom list }

exception Diverged

let tgd ~body ~head =
  if body = [] || head = [] then invalid_arg "Chase.tgd: empty body or head";
  (* Reuse Query.make's arity bookkeeping across body and head together. *)
  let q = Query.make ~head:[] (body @ head) in
  let atoms = q.Query.body in
  let rec split n = function
    | rest when n = 0 -> ([], rest)
    | [] -> ([], [])
    | a :: rest ->
      let b, h = split (n - 1) rest in
      (a :: b, h)
  in
  let b, h = split (List.length body) atoms in
  { body = b; head = h }

let atom_vars atoms =
  let seen = Hashtbl.create 8 in
  List.concat_map (fun (a : Query.atom) -> Array.to_list a.Query.args) atoms
  |> List.filter (fun v ->
         if Hashtbl.mem seen v then false
         else begin
           Hashtbl.add seen v ();
           true
         end)

let frontier t =
  let head_vars = atom_vars t.head in
  List.filter (fun v -> List.mem v head_vars) (atom_vars t.body)

let existentials t =
  let body_vars = atom_vars t.body in
  List.filter (fun v -> not (List.mem v body_vars)) (atom_vars t.head)

(* Weak acyclicity: build the position graph and reject special edges
   inside cycles. *)
let is_weakly_acyclic tgds =
  let positions = Hashtbl.create 32 in
  let id_of key =
    match Hashtbl.find_opt positions key with
    | Some i -> i
    | None ->
      let i = Hashtbl.length positions in
      Hashtbl.replace positions key i;
      i
  in
  let normal = ref [] and special = ref [] in
  List.iter
    (fun t ->
      let fr = frontier t and ex = existentials t in
      let body_positions_of v =
        List.concat_map
          (fun (a : Query.atom) ->
            List.filteri (fun _ _ -> true)
              (Array.to_list (Array.mapi (fun i w -> (i, w)) a.Query.args))
            |> List.filter_map (fun (i, w) ->
                   if w = v then Some (id_of (a.Query.pred, i)) else None))
          t.body
      in
      List.iter
        (fun (a : Query.atom) ->
          Array.iteri
            (fun j w ->
              let target = id_of (a.Query.pred, j) in
              if List.mem w fr then
                List.iter (fun src -> normal := (src, target) :: !normal)
                  (body_positions_of w)
              else if List.mem w ex then
                List.iter
                  (fun v ->
                    List.iter
                      (fun src -> special := (src, target) :: !special)
                      (body_positions_of v))
                  fr)
            a.Query.args)
        t.head)
    tgds;
  let n = Hashtbl.length positions in
  (* SCCs by iterative DFS on the combined graph; a special edge inside one
     SCC witnesses non-termination risk. *)
  let adj = Array.make (max n 1) [] in
  List.iter (fun (u, v) -> adj.(u) <- v :: adj.(u)) (!normal @ !special);
  (* Kosaraju. *)
  let visited = Array.make (max n 1) false in
  let order = ref [] in
  let rec dfs1 u =
    visited.(u) <- true;
    List.iter (fun v -> if not visited.(v) then dfs1 v) adj.(u);
    order := u :: !order
  in
  for u = 0 to n - 1 do
    if not visited.(u) then dfs1 u
  done;
  let radj = Array.make (max n 1) [] in
  List.iter (fun (u, v) -> radj.(v) <- u :: radj.(v)) (!normal @ !special);
  let comp = Array.make (max n 1) (-1) in
  let c = ref 0 in
  let rec dfs2 u =
    comp.(u) <- !c;
    List.iter (fun v -> if comp.(v) < 0 then dfs2 v) radj.(u)
  in
  List.iter
    (fun u ->
      if comp.(u) < 0 then begin
        dfs2 u;
        incr c
      end)
    !order;
  List.for_all (fun (u, v) -> comp.(u) <> comp.(v)) !special

let raw_atoms atoms =
  List.map
    (fun (a : Query.atom) -> (a.Query.pred, Array.to_list a.Query.args))
    atoms

(* Structures for a TGD: the body alone, and body+head with the same
   variable indexing. *)
let tgd_structures t =
  let body_query = Query.make ~head:[] (raw_atoms t.body) in
  let full_query = Query.make ~head:[] (raw_atoms (t.body @ t.head)) in
  let body_db, body_index = Canonical.database_no_head body_query in
  let full_db, full_index = Canonical.database_no_head full_query in
  (body_db, body_index, full_db, full_index)

(* Extend a structure with extra universe elements and the head's facts. *)
let apply_trigger db t ~assignment =
  (* assignment: variable -> element of db for body variables. *)
  let ex = existentials t in
  let fresh_base = Structure.size db in
  let fresh = List.mapi (fun i v -> (v, fresh_base + i)) ex in
  let value v =
    match List.assoc_opt v assignment with
    | Some e -> e
    | None -> List.assoc v fresh
  in
  let vocab =
    List.fold_left
      (fun acc (a : Query.atom) ->
        if Vocabulary.mem acc a.Query.pred then acc
        else Vocabulary.add acc a.Query.pred (Array.length a.Query.args))
      (Structure.vocabulary db) t.head
  in
  let grown =
    Structure.fold_tuples
      (fun name tu acc -> Structure.add_tuple acc name tu)
      db
      (Structure.create vocab ~size:(fresh_base + List.length ex))
  in
  List.fold_left
    (fun acc (a : Query.atom) ->
      Structure.add_tuple acc a.Query.pred (Array.map value a.Query.args))
    grown t.head

let chase ?(max_steps = 1000) tgds db =
  let steps = ref 0 in
  let current = ref db in
  let progress = ref true in
  while !progress do
    progress := false;
    List.iter
      (fun t ->
        let body_db, body_index, full_db, full_index = tgd_structures t in
        (* All body matches in the current database, streamed: the search
           reads the snapshot it started on, whatever the triggers add. *)
        Seq.iter
          (fun h ->
            let assignment =
              List.map (fun (v, i) -> (v, h.(i))) body_index
            in
            (* Restricted chase: fire only if no head extension exists. *)
            let restrict x value =
              match
                List.find_opt (fun (v, _) -> List.assoc v full_index = x) assignment
              with
              | Some (_, e) -> value = e
              | None -> true
            in
            let satisfied =
              Homomorphism.find ~restrict full_db !current <> None
            in
            if not satisfied then begin
              incr steps;
              if !steps > max_steps then raise Diverged;
              current := apply_trigger !current t ~assignment;
              progress := true
            end)
          (Homomorphism.search_seq body_db !current))
      tgds
  done;
  !current

let contained_under ?max_steps tgds q1 q2 =
  if Query.arity q1 <> Query.arity q2 then
    invalid_arg "Chase.contained_under: queries have different head arities";
  let d1, index1 = Canonical.database_no_head q1 in
  let chased = chase ?max_steps tgds d1 in
  (* Check the frozen head tuple of Q1 against Q2 over the chased database:
     homomorphism from Q2's body pinning head variables positionally. *)
  let body2, index2 = Canonical.database_no_head q2 in
  let head1 = Array.map (fun v -> List.assoc v index1) q1.Query.head in
  let head2 = Array.map (fun v -> List.assoc v index2) q2.Query.head in
  let pinned =
    Array.to_list (Array.map2 (fun e2 e1 -> (e2, e1)) head2 head1)
  in
  let restrict x value =
    List.for_all (fun (e2, e1) -> e2 <> x || value = e1) pinned
  in
  Homomorphism.find ~restrict body2 chased <> None
