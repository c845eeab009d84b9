type op = Solve | Contain | Enumerate | Ping | Stats

let op_name = function
  | Solve -> "solve"
  | Contain -> "contain"
  | Enumerate -> "enumerate"
  | Ping -> "ping"
  | Stats -> "stats"

type request = {
  id : Json.t;
  op : op;
  source : string option;
  target : string option;
  q1 : string option;
  q2 : string option;
  max_nodes : int option;
  timeout : float option;
  certify : bool;
  limit : int option;
  batch : int option;
}

let id_of_json j = match Json.member "id" j with Some v -> v | None -> Json.Null

(* Field accessors that distinguish "absent" from "present with the wrong
   type": a frame with {"max_nodes": "lots"} must be a typed bad_input
   response, not a silently unbudgeted solve. *)
let opt_string ~what key j =
  match Json.member key j with
  | None | Some Json.Null -> Ok None
  | Some (Json.String s) -> Ok (Some s)
  | Some _ -> Error (Printf.sprintf "field %S of %s must be a string" key what)

let opt_int ~what key j =
  match Json.member key j with
  | None | Some Json.Null -> Ok None
  | Some (Json.Int i) -> Ok (Some i)
  | Some _ ->
    Error (Printf.sprintf "field %S of %s must be an integer" key what)

let opt_number ~what key j =
  match Json.member key j with
  | None | Some Json.Null -> Ok None
  | Some (Json.Int i) -> Ok (Some (float_of_int i))
  | Some (Json.Float f) -> Ok (Some f)
  | Some _ -> Error (Printf.sprintf "field %S of %s must be a number" key what)

let opt_bool ~what key j =
  match Json.member key j with
  | None | Some Json.Null -> Ok None
  | Some (Json.Bool b) -> Ok (Some b)
  | Some _ ->
    Error (Printf.sprintf "field %S of %s must be a boolean" key what)

let ( let* ) = Result.bind

let request_of_json j =
  match j with
  | Json.Obj _ -> (
    let id = id_of_json j in
    match Json.member "op" j with
    | None -> Error "missing field \"op\""
    | Some (Json.String opname) ->
      let* op =
        match opname with
        | "solve" -> Ok Solve
        | "contain" -> Ok Contain
        | "enumerate" -> Ok Enumerate
        | "ping" -> Ok Ping
        | "stats" -> Ok Stats
        | other ->
          Error
            (Printf.sprintf
               "unknown op %S (expected solve, contain, enumerate, ping or \
                stats)"
               other)
      in
      let what = Printf.sprintf "op %S" opname in
      let* source = opt_string ~what "source" j in
      let* target = opt_string ~what "target" j in
      let* q1 = opt_string ~what "q1" j in
      let* q2 = opt_string ~what "q2" j in
      let* max_nodes = opt_int ~what "max_nodes" j in
      let* timeout = opt_number ~what "timeout" j in
      let* certify = opt_bool ~what "certify" j in
      let* limit = opt_int ~what "limit" j in
      let* batch = opt_int ~what "batch" j in
      let* () =
        match max_nodes with
        | Some n when n <= 0 -> Error "\"max_nodes\" must be positive"
        | _ -> Ok ()
      in
      let* () =
        match timeout with
        | Some s when s <= 0. -> Error "\"timeout\" must be positive"
        | _ -> Ok ()
      in
      let* () =
        match limit with
        | Some n when n < 0 -> Error "\"limit\" must be non-negative"
        | _ -> Ok ()
      in
      let* () =
        match batch with
        | Some n when n <= 0 -> Error "\"batch\" must be positive"
        | _ -> Ok ()
      in
      let require field value =
        match value with
        | Some _ -> Ok ()
        | None -> Error (Printf.sprintf "%s requires field %S" what field)
      in
      let* () =
        match op with
        | Solve | Enumerate ->
          let* () = require "source" source in
          require "target" target
        | Contain ->
          let* () = require "q1" q1 in
          require "q2" q2
        | Ping | Stats -> Ok ()
      in
      Ok
        {
          id;
          op;
          source;
          target;
          q1;
          q2;
          max_nodes;
          timeout;
          certify = Option.value ~default:false certify;
          limit;
          batch;
        }
    | Some _ -> Error "field \"op\" must be a string")
  | _ -> Error "frame must be a JSON object"

(* --- Responses ----------------------------------------------------- *)

let ok_ping ~id =
  Json.Obj
    [
      ("id", id);
      ("status", Json.String "ok");
      ("op", Json.String "ping");
      ("code", Json.Int 0);
    ]

let ok_stats ~id ~fields =
  Json.Obj
    ([
       ("id", id);
       ("status", Json.String "ok");
       ("op", Json.String "stats");
       ("code", Json.Int 0);
     ]
    @ fields)

let json_of_mapping h =
  let rec from i items = if i < 0 then items else from (i - 1) (Json.Int h.(i) :: items) in
  Json.List (from (Array.length h - 1) [])

let ok_verdict ~id ~op ~verdict ~route ~cache ~nodes ~elapsed_ms ~certified =
  let verdict_fields =
    match verdict with
    | Core.Solver.Sat h ->
      [
        ("verdict", Json.String "sat");
        ("witness", json_of_mapping h);
        ("code", Json.Int 0);
      ]
    | Core.Solver.Unsat c ->
      [
        ("verdict", Json.String "unsat");
        ("certificate", Json.String (Certificate.describe c));
        ("code", Json.Int 0);
      ]
    | Core.Solver.Unknown reason ->
      [
        ("verdict", Json.String "unknown");
        ("reason", Json.String (Relational.Budget.reason_to_string reason));
        ("code", Json.Int 4);
      ]
  in
  Json.Obj
    ([
       ("id", id);
       ("status", Json.String "ok");
       ("op", Json.String (op_name op));
       ("route", Json.String route);
       ("cache", Json.String cache);
       ("nodes", Json.Int nodes);
       ("elapsed_ms", Json.Float elapsed_ms);
     ]
    @ verdict_fields
    @
    match certified with
    | None -> []
    | Some ok -> [ ("certified", Json.Bool ok) ])

(* Streamed enumerate responses: zero or more ["frame":"answers"] lines
   (each carrying a batch of witness arrays) followed by exactly one
   ["frame":"final"] line with the totals. *)
let ok_enumerate_answers ~id ~answers =
  Json.Obj
    [
      ("id", id);
      ("status", Json.String "ok");
      ("op", Json.String "enumerate");
      ("frame", Json.String "answers");
      ("answers", Json.List (List.map json_of_mapping answers));
    ]

let ok_enumerate_final ~id ~route ~cache ~count ~complete ~elapsed_ms =
  Json.Obj
    [
      ("id", id);
      ("status", Json.String "ok");
      ("op", Json.String "enumerate");
      ("frame", Json.String "final");
      ("route", Json.String route);
      ("cache", Json.String cache);
      ("count", Json.Int count);
      ("complete", Json.Bool complete);
      ("elapsed_ms", Json.Float elapsed_ms);
      ("code", Json.Int 0);
    ]

let error ~id e =
  Json.Obj
    ([
       ("id", id);
       ("status", Json.String "error");
       ("error", Json.String (Core.Error.kind_name e));
       ("code", Json.Int (Core.Error.exit_code e));
       ("message", Json.String (Core.Error.to_string e));
     ]
    @
    (* Worker crashes carry their triage class as a dedicated field so
       chaos harnesses and ops tooling can count crash kinds without
       parsing the message text. *)
    match e with
    | Core.Error.Worker_crash { crash; _ } ->
      [ ("crash", Json.String (Core.Error.crash_class_name crash)) ]
    | _ -> [])

(* The one classification of an escaped exception into a typed response,
   shared by the parent-side isolation boundary ([Server.handle_line])
   and the sandboxed worker child — both must render identical taxonomy
   for the same failure. *)
let error_of_exn ~id = function
  | Fault.Injected site ->
    error ~id
      (Core.Error.Internal
         (Printf.sprintf "injected fault at site %s" (Fault.site_name site)))
  | Core.Error.Error e -> error ~id e
  | Out_of_memory ->
    (* Under an RLIMIT_AS ceiling a failed allocation surfaces as
       [Out_of_memory] rather than process death; classify it as the
       crash it is so the supervisor's retry/dump machinery sees it. *)
    error ~id
      (Core.Error.Worker_crash
         {
           crash = Core.Error.Crash_oom;
           attempts = 1;
           detail = "allocation failed (memory ceiling or host exhaustion)";
         })
  | e -> (
    match Core.Error.of_exn e with
    | Some t -> error ~id t
    | None ->
      (* The CLI re-raises unrecognized exceptions to die loudly; the
         daemon must not die, so the catch-all is total here. *)
      error ~id (Core.Error.Internal (Printexc.to_string e)))

let shed ~id ~message =
  Json.Obj
    [
      ("id", id);
      ("status", Json.String "shed");
      ("code", Json.Int 4);
      ("message", Json.String message);
    ]

let fallback_line =
  "{\"id\":null,\"status\":\"error\",\"error\":\"internal\",\"code\":5,\
   \"message\":\"internal error (please report): response serialization \
   failed\"}"
