type atom = { pred : string; args : string array }

type rule = { head : atom; body : atom list }

type t = { rules : rule list; goal : string }

let atom pred args = { pred; args = Array.of_list args }

let rule head body = { head; body }

let distinct_in_order vars =
  let seen = Hashtbl.create 8 in
  List.filter
    (fun v ->
      if Hashtbl.mem seen v then false
      else begin
        Hashtbl.add seen v ();
        true
      end)
    vars

let head_variables r = distinct_in_order (Array.to_list r.head.args)

let body_variables r =
  distinct_in_order (List.concat_map (fun a -> Array.to_list a.args) r.body)

let rule_variables r =
  distinct_in_order (Array.to_list r.head.args @ List.concat_map (fun a -> Array.to_list a.args) r.body)

let make ~goal rules =
  let arities = Hashtbl.create 16 in
  let record a =
    match Hashtbl.find_opt arities a.pred with
    | Some n when n <> Array.length a.args ->
      invalid_arg ("Program.make: predicate " ^ a.pred ^ " used with two arities")
    | _ -> Hashtbl.replace arities a.pred (Array.length a.args)
  in
  List.iter
    (fun r ->
      record r.head;
      List.iter record r.body)
    rules;
  let idbs = List.map (fun r -> r.head.pred) rules in
  if not (List.mem goal idbs) then
    invalid_arg ("Program.make: goal " ^ goal ^ " is not an IDB predicate");
  { rules; goal }

let idb_predicates p = distinct_in_order (List.map (fun r -> r.head.pred) p.rules)

let predicate_arity p name =
  let rec scan = function
    | [] -> raise Not_found
    | r :: rest ->
      if r.head.pred = name then Array.length r.head.args
      else begin
        match List.find_opt (fun a -> a.pred = name) r.body with
        | Some a -> Array.length a.args
        | None -> scan rest
      end
  in
  scan p.rules

let is_k_datalog k p =
  List.for_all
    (fun r ->
      List.length (body_variables r) <= k && List.length (head_variables r) <= k)
    p.rules

let width p =
  List.fold_left
    (fun acc r ->
      max acc (max (List.length (body_variables r)) (List.length (head_variables r))))
    0 p.rules
