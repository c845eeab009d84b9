exception Parse_error of Source_position.t * string

let fail pos fmt =
  Format.kasprintf (fun msg -> raise (Parse_error (pos, msg))) fmt

(* Tokens of one line with their 1-based starting columns; ['#'] starts a
   comment. *)
let tokens_of_line line =
  let line =
    match String.index_opt line '#' with
    | Some i -> String.sub line 0 i
    | None -> line
  in
  let n = String.length line in
  let tokens = ref [] in
  let i = ref 0 in
  while !i < n do
    if line.[!i] = ' ' || line.[!i] = '\t' then incr i
    else begin
      let start = !i in
      while !i < n && line.[!i] <> ' ' && line.[!i] <> '\t' do
        incr i
      done;
      tokens := (start + 1, String.sub line start (!i - start)) :: !tokens
    end
  done;
  List.rev !tokens

let int_of ~line (col, token) what =
  match int_of_string_opt token with
  | Some v -> v
  | None -> fail { Source_position.line; col } "expected %s, got %S" what token

let parse text =
  let lines = String.split_on_char '\n' text in
  let parsed =
    List.concat
      (List.mapi
         (fun i l ->
           match tokens_of_line l with [] -> [] | ts -> [ (i + 1, ts) ])
         lines)
  in
  let line_pos line = { Source_position.line; col = 1 } in
  let token_pos line (col, _) = { Source_position.line; col } in
  match parsed with
  | [] -> fail Source_position.start "empty input (expected a 'size N' line)"
  | (first_line, first) :: rest ->
    let size =
      match first with
      | [ (_, "size"); n ] -> int_of ~line:first_line n "the universe size"
      | _ -> fail (line_pos first_line) "the first line must be 'size N'"
    in
    let decls, facts =
      List.partition
        (fun (_, ts) -> match ts with (_, "rel") :: _ -> true | _ -> false)
        rest
    in
    let arities = Hashtbl.create 8 in
    let declaration_order = ref [] in
    let declare pos name arity =
      match Hashtbl.find_opt arities name with
      | Some a when a <> arity ->
        fail pos "relation %s used with arities %d and %d" name a arity
      | Some _ -> ()
      | None ->
        Hashtbl.replace arities name arity;
        declaration_order := name :: !declaration_order
    in
    List.iter
      (fun (line, ts) ->
        match ts with
        | [ _; (col, name); arity ] ->
          declare { Source_position.line; col } name (int_of ~line arity "an arity")
        | _ -> fail (line_pos line) "malformed rel declaration (expected 'rel NAME ARITY')")
      decls;
    let parsed_facts =
      List.map
        (fun (line, ts) ->
          match ts with
          | ((_, name) as name_tok) :: args ->
            let tuple =
              Array.of_list
                (List.map
                   (fun ((col, _) as a) ->
                     let v = int_of ~line a "an element" in
                     if v < 0 || v >= size then
                       fail { Source_position.line; col }
                         "element %d out of range for universe size %d" v size;
                     v)
                   args)
            in
            declare (token_pos line name_tok) name (Array.length tuple);
            (token_pos line name_tok, name, tuple)
          | [] -> assert false)
        facts
    in
    let base =
      match
        let vocab =
          Vocabulary.create
            (List.rev_map
               (fun name -> (name, Hashtbl.find arities name))
               !declaration_order)
        in
        Structure.create vocab ~size
      with
      | s -> s
      | exception Invalid_argument msg -> fail (line_pos first_line) "%s" msg
    in
    List.fold_left
      (fun acc (pos, name, tuple) ->
        match Structure.add_tuple acc name tuple with
        | s -> s
        | exception Invalid_argument msg -> fail pos "%s" msg)
      base parsed_facts

let print a =
  let buffer = Buffer.create 256 in
  Buffer.add_string buffer (Printf.sprintf "size %d\n" (Structure.size a));
  List.iter
    (fun (name, arity) -> Buffer.add_string buffer (Printf.sprintf "rel %s %d\n" name arity))
    (Vocabulary.symbols (Structure.vocabulary a));
  Structure.iter_tuples
    (fun name t ->
      Buffer.add_string buffer name;
      Array.iter (fun x -> Buffer.add_string buffer (Printf.sprintf " %d" x)) t;
      Buffer.add_char buffer '\n')
    a;
  Buffer.contents buffer
