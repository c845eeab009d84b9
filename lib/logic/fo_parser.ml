exception Parse_error of string

type token =
  | Ident of string
  | Lparen
  | Rparen
  | Comma
  | Dot
  | Amp
  | Bar
  | Tilde
  | Equals
  | Eof

let is_ident_start c = (c >= 'A' && c <= 'Z') || (c >= 'a' && c <= 'z') || c = '_'

let is_ident_char c = is_ident_start c || (c >= '0' && c <= '9') || c = '\''

let tokenize input =
  let n = String.length input in
  let tokens = ref [] in
  let i = ref 0 in
  while !i < n do
    let c = input.[!i] in
    if c = ' ' || c = '\t' || c = '\n' || c = '\r' then incr i
    else if is_ident_start c then begin
      let start = !i in
      while !i < n && is_ident_char input.[!i] do
        incr i
      done;
      tokens := Ident (String.sub input start (!i - start)) :: !tokens
    end
    else begin
      (match c with
      | '(' -> tokens := Lparen :: !tokens
      | ')' -> tokens := Rparen :: !tokens
      | ',' -> tokens := Comma :: !tokens
      | '.' -> tokens := Dot :: !tokens
      | '&' -> tokens := Amp :: !tokens
      | '|' -> tokens := Bar :: !tokens
      | '~' -> tokens := Tilde :: !tokens
      | '=' -> tokens := Equals :: !tokens
      | _ -> raise (Parse_error (Printf.sprintf "unexpected character %C" c)));
      incr i
    end
  done;
  List.rev (Eof :: !tokens)

type state = { mutable tokens : token list }

let peek st = match st.tokens with [] -> Eof | t :: _ -> t

let advance st = match st.tokens with [] -> () | _ :: rest -> st.tokens <- rest

let expect st token what =
  if peek st = token then advance st else raise (Parse_error ("expected " ^ what))

(* disjunction := conjunction ('|' conjunction)*
   conjunction := unary ('&' unary)*
   unary := '~' unary | 'exists' v '.' disjunction | 'forall' v '.' disjunction
          | primary
   primary := 'true' | 'false' | IDENT '(' args ')' | IDENT '=' IDENT
            | '(' disjunction ')' *)
let rec parse_disjunction st =
  let first = parse_conjunction st in
  let rec loop acc =
    if peek st = Bar then begin
      advance st;
      loop (parse_conjunction st :: acc)
    end
    else
      match acc with [ f ] -> f | fs -> Formula.Or (List.rev fs)
  in
  loop [ first ]

and parse_conjunction st =
  let first = parse_unary st in
  let rec loop acc =
    if peek st = Amp then begin
      advance st;
      loop (parse_unary st :: acc)
    end
    else
      match acc with [ f ] -> f | fs -> Formula.And (List.rev fs)
  in
  loop [ first ]

and parse_unary st =
  match peek st with
  | Tilde ->
    advance st;
    Formula.Not (parse_unary st)
  | Ident "exists" ->
    advance st;
    let v = parse_ident st "a variable" in
    expect st Dot "'.'";
    Formula.Exists (v, parse_disjunction st)
  | Ident "forall" ->
    advance st;
    let v = parse_ident st "a variable" in
    expect st Dot "'.'";
    Formula.Forall (v, parse_disjunction st)
  | _ -> parse_primary st

and parse_ident st what =
  match peek st with
  | Ident name ->
    advance st;
    name
  | _ -> raise (Parse_error ("expected " ^ what))

and parse_primary st =
  match peek st with
  | Lparen ->
    advance st;
    let f = parse_disjunction st in
    expect st Rparen "')'";
    f
  | Ident "true" ->
    advance st;
    Formula.True
  | Ident "false" ->
    advance st;
    Formula.False
  | Ident name -> (
    advance st;
    match peek st with
    | Lparen ->
      advance st;
      let rec args acc =
        let a = parse_ident st "an argument" in
        if peek st = Comma then begin
          advance st;
          args (a :: acc)
        end
        else List.rev (a :: acc)
      in
      let arguments = if peek st = Rparen then [] else args [] in
      expect st Rparen "')'";
      Formula.Atom (name, Array.of_list arguments)
    | Equals ->
      advance st;
      let rhs = parse_ident st "a variable" in
      Formula.Equal (name, rhs)
    | _ -> raise (Parse_error ("expected '(' or '=' after " ^ name)))
  | _ -> raise (Parse_error "expected a formula")

let parse input =
  let st = { tokens = tokenize input } in
  let f = parse_disjunction st in
  if peek st <> Eof then raise (Parse_error "trailing input after formula");
  f
