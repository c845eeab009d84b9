type t = { symbols : (string * int) list; index : (string, int) Hashtbl.t }

let build symbols =
  let index = Hashtbl.create (List.length symbols) in
  List.iter
    (fun (name, arity) ->
      if arity < 0 then invalid_arg ("Vocabulary.create: negative arity for " ^ name);
      if Hashtbl.mem index name then
        invalid_arg ("Vocabulary.create: duplicate symbol " ^ name);
      Hashtbl.add index name arity)
    symbols;
  { symbols; index }

let create symbols = build symbols

let symbols v = v.symbols

let arity v name = Hashtbl.find v.index name

let mem v name = Hashtbl.mem v.index name

let add v name arity =
  if mem v name then invalid_arg ("Vocabulary.add: duplicate symbol " ^ name);
  build (v.symbols @ [ (name, arity) ])

let subset v w =
  List.for_all
    (fun (name, arity) ->
      match Hashtbl.find_opt w.index name with
      | Some a -> a = arity
      | None -> false)
    v.symbols

let equal v w = subset v w && subset w v
