type t =
  | Null
  | Bool of bool
  | Int of int
  | Float of float
  | String of string
  | List of t list
  | Obj of (string * t) list

exception Parse_error of string

let fail offset fmt =
  Printf.ksprintf (fun msg -> raise (Parse_error (Printf.sprintf "%s (byte %d)" msg offset))) fmt

(* Nesting cap: a frame of a million '[' must fail with Parse_error, not
   blow the OCaml stack inside the daemon's isolation boundary. *)
let max_depth = 256

(* --- Parsing ------------------------------------------------------- *)

type state = { s : string; mutable i : int }

let peek st = if st.i < String.length st.s then Some st.s.[st.i] else None

let advance st = st.i <- st.i + 1

let skip_ws st =
  let n = String.length st.s in
  while
    st.i < n
    && match st.s.[st.i] with ' ' | '\t' | '\n' | '\r' -> true | _ -> false
  do
    advance st
  done

let expect st c =
  match peek st with
  | Some c' when c' = c -> advance st
  | Some c' -> fail st.i "expected '%c', found '%c'" c c'
  | None -> fail st.i "expected '%c', found end of input" c

let literal st word value =
  let n = String.length word in
  if st.i + n <= String.length st.s && String.sub st.s st.i n = word then begin
    st.i <- st.i + n;
    value
  end
  else fail st.i "invalid literal"

(* Encode a Unicode scalar value as UTF-8 bytes into [buf]. *)
let add_utf8 buf code =
  if code < 0x80 then Buffer.add_char buf (Char.chr code)
  else if code < 0x800 then begin
    Buffer.add_char buf (Char.chr (0xC0 lor (code lsr 6)));
    Buffer.add_char buf (Char.chr (0x80 lor (code land 0x3F)))
  end
  else if code < 0x10000 then begin
    Buffer.add_char buf (Char.chr (0xE0 lor (code lsr 12)));
    Buffer.add_char buf (Char.chr (0x80 lor ((code lsr 6) land 0x3F)));
    Buffer.add_char buf (Char.chr (0x80 lor (code land 0x3F)))
  end
  else begin
    Buffer.add_char buf (Char.chr (0xF0 lor (code lsr 18)));
    Buffer.add_char buf (Char.chr (0x80 lor ((code lsr 12) land 0x3F)));
    Buffer.add_char buf (Char.chr (0x80 lor ((code lsr 6) land 0x3F)));
    Buffer.add_char buf (Char.chr (0x80 lor (code land 0x3F)))
  end

let hex4 st =
  let digit c =
    match c with
    | '0' .. '9' -> Char.code c - Char.code '0'
    | 'a' .. 'f' -> Char.code c - Char.code 'a' + 10
    | 'A' .. 'F' -> Char.code c - Char.code 'A' + 10
    | _ -> fail st.i "invalid \\u escape"
  in
  if st.i + 4 > String.length st.s then fail st.i "truncated \\u escape";
  let v =
    (digit st.s.[st.i] lsl 12)
    lor (digit st.s.[st.i + 1] lsl 8)
    lor (digit st.s.[st.i + 2] lsl 4)
    lor digit st.s.[st.i + 3]
  in
  st.i <- st.i + 4;
  v

let parse_string st =
  expect st '"';
  let buf = Buffer.create 16 in
  let rec go () =
    match peek st with
    | None -> fail st.i "unterminated string"
    | Some '"' -> advance st
    | Some '\\' ->
      advance st;
      (match peek st with
      | None -> fail st.i "unterminated escape"
      | Some c ->
        advance st;
        (match c with
        | '"' -> Buffer.add_char buf '"'
        | '\\' -> Buffer.add_char buf '\\'
        | '/' -> Buffer.add_char buf '/'
        | 'b' -> Buffer.add_char buf '\b'
        | 'f' -> Buffer.add_char buf '\012'
        | 'n' -> Buffer.add_char buf '\n'
        | 'r' -> Buffer.add_char buf '\r'
        | 't' -> Buffer.add_char buf '\t'
        | 'u' ->
          let hi = hex4 st in
          (* Surrogate pairs: \uD800-\uDBFF must be followed by a low
             surrogate; lone surrogates are replaced with U+FFFD. *)
          if hi >= 0xD800 && hi <= 0xDBFF then begin
            if
              st.i + 1 < String.length st.s
              && st.s.[st.i] = '\\'
              && st.s.[st.i + 1] = 'u'
            then begin
              st.i <- st.i + 2;
              let lo = hex4 st in
              if lo >= 0xDC00 && lo <= 0xDFFF then
                add_utf8 buf (0x10000 + ((hi - 0xD800) lsl 10) + (lo - 0xDC00))
              else add_utf8 buf 0xFFFD
            end
            else add_utf8 buf 0xFFFD
          end
          else if hi >= 0xDC00 && hi <= 0xDFFF then add_utf8 buf 0xFFFD
          else add_utf8 buf hi
        | _ -> fail (st.i - 1) "invalid escape '\\%c'" c));
      go ()
    | Some c when Char.code c < 0x20 -> fail st.i "control character in string"
    | Some c ->
      Buffer.add_char buf c;
      advance st;
      go ()
  in
  go ();
  Buffer.contents buf

let parse_number st =
  let start = st.i in
  let n = String.length st.s in
  let is_float = ref false in
  if peek st = Some '-' then advance st;
  while
    st.i < n
    &&
    match st.s.[st.i] with
    | '0' .. '9' -> true
    | '.' | 'e' | 'E' | '+' | '-' ->
      is_float := true;
      true
    | _ -> false
  do
    advance st
  done;
  let text = String.sub st.s start (st.i - start) in
  if !is_float then
    match float_of_string_opt text with
    | Some f -> Float f
    | None -> fail start "invalid number %S" text
  else
    match int_of_string_opt text with
    | Some i -> Int i
    | None -> (
      (* Integer overflow: fall back to float like every lenient parser. *)
      match float_of_string_opt text with
      | Some f -> Float f
      | None -> fail start "invalid number %S" text)

let rec parse_value st depth =
  if depth > max_depth then fail st.i "nesting deeper than %d" max_depth;
  skip_ws st;
  match peek st with
  | None -> fail st.i "expected a value, found end of input"
  | Some '{' ->
    advance st;
    skip_ws st;
    if peek st = Some '}' then begin
      advance st;
      Obj []
    end
    else begin
      let fields = ref [] in
      let rec members () =
        skip_ws st;
        let key = parse_string st in
        skip_ws st;
        expect st ':';
        let v = parse_value st (depth + 1) in
        fields := (key, v) :: !fields;
        skip_ws st;
        match peek st with
        | Some ',' ->
          advance st;
          members ()
        | Some '}' -> advance st
        | _ -> fail st.i "expected ',' or '}' in object"
      in
      members ();
      Obj (List.rev !fields)
    end
  | Some '[' ->
    advance st;
    skip_ws st;
    if peek st = Some ']' then begin
      advance st;
      List []
    end
    else begin
      let items = ref [] in
      let rec elements () =
        let v = parse_value st (depth + 1) in
        items := v :: !items;
        skip_ws st;
        match peek st with
        | Some ',' ->
          advance st;
          elements ()
        | Some ']' -> advance st
        | _ -> fail st.i "expected ',' or ']' in array"
      in
      elements ();
      List (List.rev !items)
    end
  | Some '"' -> String (parse_string st)
  | Some 't' -> literal st "true" (Bool true)
  | Some 'f' -> literal st "false" (Bool false)
  | Some 'n' -> literal st "null" Null
  | Some ('-' | '0' .. '9') -> parse_number st
  | Some c -> fail st.i "unexpected character '%c'" c

let parse ?max_bytes s =
  (match max_bytes with
  | Some cap when String.length s > cap ->
    fail 0 "input of %d bytes exceeds the %d-byte limit" (String.length s) cap
  | _ -> ());
  let st = { s; i = 0 } in
  let v = parse_value st 0 in
  skip_ws st;
  if st.i <> String.length s then fail st.i "trailing garbage after value";
  v

(* --- Printing ------------------------------------------------------ *)

(* A JSON string literal, escaped straight into [buf]; most keys and
   strings need no escape and go in whole. *)
let needs_escape c = c = '"' || c = '\\' || Char.code c < 0x20

let write_string buf s =
  Buffer.add_char buf '"';
  if not (String.exists needs_escape s) then Buffer.add_string buf s
  else
    String.iter
      (fun c ->
        match c with
        | '"' -> Buffer.add_string buf "\\\""
        | '\\' -> Buffer.add_string buf "\\\\"
        | '\n' -> Buffer.add_string buf "\\n"
        | '\r' -> Buffer.add_string buf "\\r"
        | '\t' -> Buffer.add_string buf "\\t"
        | c when Char.code c < 0x20 ->
          Buffer.add_string buf (Printf.sprintf "\\u%04x" (Char.code c))
        | c -> Buffer.add_char buf c)
      s;
  Buffer.add_char buf '"'

(* The decimal digits of [n <= 0], most significant first.  Negative, so
   [min_int] needs no special case. *)
let rec write_digits buf n =
  if n <> 0 then begin
    write_digits buf (n / 10);
    Buffer.add_char buf (Char.unsafe_chr (Char.code '0' - (n mod 10)))
  end

(* [string_of_int i], written into [buf] without the intermediate
   string. *)
let write_int buf i =
  if i = 0 then Buffer.add_char buf '0'
  else if i < 0 then begin
    Buffer.add_char buf '-';
    write_digits buf i
  end
  else write_digits buf (-i)

(* Comma-separated, with no index counted per element. *)
let write_seq write_one buf = function
  | [] -> ()
  | x :: xs ->
    write_one buf x;
    List.iter
      (fun x ->
        Buffer.add_char buf ',';
        write_one buf x)
      xs

let rec write buf = function
  | Null -> Buffer.add_string buf "null"
  | Bool b -> Buffer.add_string buf (if b then "true" else "false")
  | Int i -> write_int buf i
  | Float f ->
    if not (Float.is_finite f) then Buffer.add_string buf "null"
    else if Float.is_integer f && Float.abs f < 1e15 then
      Buffer.add_string buf (Printf.sprintf "%.1f" f)
    else begin
      (* Shortest representation that round-trips. *)
      let s = Printf.sprintf "%.15g" f in
      Buffer.add_string buf
        (if float_of_string s = f then s else Printf.sprintf "%.17g" f)
    end
  | String s -> write_string buf s
  | List items ->
    Buffer.add_char buf '[';
    write_seq write buf items;
    Buffer.add_char buf ']'
  | Obj fields ->
    Buffer.add_char buf '{';
    write_seq write_field buf fields;
    Buffer.add_char buf '}'

and write_field buf (k, v) =
  write_string buf k;
  Buffer.add_char buf ':';
  write buf v

(* The first buffer stays in the minor heap (at most 256 words): a
   larger one would put every response, however short, in the major
   heap. *)
let to_string v =
  let buf = Buffer.create 128 in
  write buf v;
  Buffer.contents buf

(* --- Accessors ----------------------------------------------------- *)

let member key = function
  | Obj fields -> List.assoc_opt key fields
  | _ -> None

let string_member key j =
  match member key j with Some (String s) -> Some s | _ -> None

let int_member key j = match member key j with Some (Int i) -> Some i | _ -> None

let float_member key j =
  match member key j with
  | Some (Float f) -> Some f
  | Some (Int i) -> Some (float_of_int i)
  | _ -> None

let bool_member key j =
  match member key j with Some (Bool b) -> Some b | _ -> None
