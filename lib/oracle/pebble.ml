open Relational

type config = (int * int) list

(* Insert a pebble pair keeping the list sorted by first component. *)
let rec insert (a, b) = function
  | [] -> [ (a, b) ]
  | (a', b') :: rest as l ->
    if a < a' then (a, b) :: l else (a', b') :: insert (a, b) rest

let rec remove_at a = function
  | [] -> []
  | (a', b') :: rest -> if a = a' then rest else (a', b') :: remove_at a rest

let domain config = List.map fst config

(* All subsets of [0..n-1] of size at most k, as sorted lists. *)
let subsets_up_to n k =
  let rec extend subset start size acc =
    let acc = subset :: acc in
    if size = k then acc
    else
      let rec loop i acc =
        if i >= n then acc
        else loop (i + 1) (extend (subset @ [ i ]) (i + 1) (size + 1) acc)
      in
      loop start acc
  in
  extend [] 0 0 []

(* Tuples of A whose elements all satisfy [dom_mem]: a mapping with that
   domain must honour exactly these. *)
let tuples_within a dom_mem =
  List.rev
    (Structure.fold_tuples
       (fun name t acc ->
         if Array.for_all dom_mem t then (name, t) :: acc else acc)
       a [])

let family ~budget ~k a b =
  let n = Structure.size a and m = Structure.size b in
  let family : (config, unit) Hashtbl.t = Hashtbl.create 1024 in
  (* Generate all partial homomorphisms with |dom| <= k. *)
  let generate dom =
    let dom = Array.of_list dom in
    let d = Array.length dom in
    let constraints = tuples_within a (fun x -> Array.exists (( = ) x) dom) in
    let image = Array.make (max d 1) 0 in
    let lookup x =
      let rec find j = if dom.(j) = x then image.(j) else find (j + 1) in
      find 0
    in
    let rec assign i =
      if i = d then begin
        Budget.tick budget;
        let ok =
          List.for_all
            (fun (name, t) ->
              let img = Array.map lookup t in
              match Structure.relation b name with
              | r -> Relation.mem r img
              | exception Not_found -> false)
            constraints
        in
        if ok then begin
          let assoc = Array.to_list (Array.mapi (fun j x -> (x, image.(j))) dom) in
          Hashtbl.replace family assoc ()
        end
      end
      else
        for v = 0 to m - 1 do
          image.(i) <- v;
          assign (i + 1)
        done
    in
    assign 0
  in
  List.iter generate (subsets_up_to n k);
  (* Consistency loop: drop configurations without the forth property,
     cascading to supersets (restriction-closure) and rechecking
     restrictions whose forth witnesses vanished. *)
  let queue = Queue.create () in
  (* Chronological log of forth-property failures: [(config, x)] records
     that, at removal time, no extension of [config] by a value for [x]
     remained in the family.  Closure removals (supersets of an already
     removed configuration) need no log entry: they always contain an
     earlier forth-removed configuration, which is what the certificate
     checker looks for. *)
  let trace = ref [] in
  let remove ?pivot config =
    if Hashtbl.mem family config then begin
      Hashtbl.remove family config;
      (match pivot with
      | Some x -> trace := (config, x) :: !trace
      | None -> ());
      Queue.add config queue
    end
  in
  (* First source element (if any) that the configuration cannot be
     extended to within the current family. *)
  let forth_failure config =
    Budget.tick budget;
    if List.length config >= k then None
    else begin
      let dom = domain config in
      let failure = ref None in
      for x = 0 to n - 1 do
        if !failure = None && not (List.mem x dom) then begin
          let extendable = ref false in
          for v = 0 to m - 1 do
            if (not !extendable) && Hashtbl.mem family (insert (x, v) config)
            then extendable := true
          done;
          if not !extendable then failure := Some x
        end
      done;
      !failure
    end
  in
  let initial_bad =
    Hashtbl.fold
      (fun config () acc ->
        match forth_failure config with
        | Some x -> (config, x) :: acc
        | None -> acc)
      family []
  in
  List.iter (fun (config, x) -> remove ~pivot:x config) initial_bad;
  while not (Queue.is_empty queue) do
    Budget.tick budget;
    let config = Queue.pop queue in
    if List.length config < k then begin
      let dom = domain config in
      for x = 0 to n - 1 do
        if not (List.mem x dom) then
          for v = 0 to m - 1 do
            remove (insert (x, v) config)
          done
      done
    end;
    List.iter
      (fun (x, _) ->
        let smaller = remove_at x config in
        if Hashtbl.mem family smaller then
          match forth_failure smaller with
          | Some piv -> remove ~pivot:piv smaller
          | None -> ())
      config
  done;
  let surviving = Hashtbl.fold (fun config () acc -> config :: acc) family [] in
  (surviving, List.rev !trace)
