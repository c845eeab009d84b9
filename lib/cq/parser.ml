open Relational

exception Parse_error of Source_position.t * string

let fail pos msg = raise (Parse_error (pos, msg))

type token =
  | Ident of string
  | Lparen
  | Rparen
  | Comma
  | Turnstile
  | Period
  | Eof

let is_ident_start c = (c >= 'A' && c <= 'Z') || (c >= 'a' && c <= 'z') || c = '_'

let is_ident_char c = is_ident_start c || (c >= '0' && c <= '9') || c = '\''

(* Tokens paired with the source position of their first character; [Eof]
   carries the position just past the input.  One line cursor advances
   with the scan, so positions cost nothing per token. *)
let tokenize input =
  let line = ref 1 and line_start = ref 0 in
  let pos i = { Source_position.line = !line; col = i - !line_start + 1 } in
  let n = String.length input in
  let tokens = ref [] in
  let i = ref 0 in
  while !i < n do
    let c = input.[!i] in
    if c = '\n' then begin
      incr i;
      incr line;
      line_start := !i
    end
    else if c = ' ' || c = '\t' || c = '\r' then incr i
    else if is_ident_start c then begin
      let start = !i in
      while !i < n && is_ident_char input.[!i] do
        incr i
      done;
      tokens := (pos start, Ident (String.sub input start (!i - start))) :: !tokens
    end
    else begin
      (match c with
      | '(' -> tokens := (pos !i, Lparen) :: !tokens
      | ')' -> tokens := (pos !i, Rparen) :: !tokens
      | ',' -> tokens := (pos !i, Comma) :: !tokens
      | '.' -> tokens := (pos !i, Period) :: !tokens
      | ':' ->
        if !i + 1 < n && input.[!i + 1] = '-' then begin
          tokens := (pos !i, Turnstile) :: !tokens;
          incr i
        end
        else fail (pos !i) "unexpected ':'"
      | _ -> fail (pos !i) (Printf.sprintf "unexpected character %C" c));
      incr i
    end
  done;
  List.rev ((pos n, Eof) :: !tokens)

type state = { mutable tokens : (Source_position.t * token) list }

let peek st =
  match st.tokens with
  | [] -> (Source_position.start, Eof)
  | t :: _ -> t

let peek_token st = snd (peek st)

let advance st = match st.tokens with [] -> () | _ :: rest -> st.tokens <- rest

let expect st token what =
  let pos, found = peek st in
  if found = token then advance st else fail pos ("expected " ^ what)

let parse_ident st what =
  match peek st with
  | _, Ident name ->
    advance st;
    name
  | pos, _ -> fail pos ("expected " ^ what)

(* varlist := epsilon | IDENT (',' IDENT)* *)
let parse_args st =
  if peek_token st = Rparen then []
  else begin
    let rec loop acc =
      let v = parse_ident st "a variable" in
      if peek_token st = Comma then begin
        advance st;
        loop (v :: acc)
      end
      else List.rev (v :: acc)
    in
    loop []
  end

let parse_atom st =
  let pred = parse_ident st "a predicate" in
  expect st Lparen "'('";
  let args = parse_args st in
  expect st Rparen "')'";
  (pred, args)

let parse string =
  let st = { tokens = tokenize string } in
  let head_pred = parse_ident st "the head predicate" in
  let head =
    if peek_token st = Lparen then begin
      advance st;
      let args = parse_args st in
      expect st Rparen "')'";
      args
    end
    else []
  in
  expect st Turnstile "':-'";
  let rec atoms acc =
    let a = parse_atom st in
    if peek_token st = Comma then begin
      advance st;
      atoms (a :: acc)
    end
    else List.rev (a :: acc)
  in
  let body = atoms [] in
  if peek_token st = Period then advance st;
  let pos, trailing = peek st in
  if trailing <> Eof then fail pos "trailing input after query";
  try Query.make ~head_pred ~head body
  with Invalid_argument msg -> fail pos msg

let parse_opt string =
  match parse string with q -> Some q | exception Parse_error _ -> None
