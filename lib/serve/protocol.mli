(** The serve wire protocol: one JSON object per line in each direction.

    {2 Requests}

    {v
    {"id": <any>, "op": "solve",
     "source": "<structure text>", "target": "<structure text>",
     "max_nodes": N, "timeout": S, "certify": true}
    {"id": <any>, "op": "contain", "q1": "<query>", "q2": "<query>", ...}
    {"id": <any>, "op": "enumerate", "source": "...", "target": "...",
     "limit": N, "batch": K, ...}
    {"id": <any>, "op": "ping"}
    {"id": <any>, "op": "stats"}
    v}

    An [enumerate] request is answered by a {e stream} of response lines
    sharing the request's [id]: zero or more
    [{"frame":"answers","answers":[[...],...]}] lines of at most [batch]
    witnesses each, then one [{"frame":"final","count":N,...}] line.  It
    cannot appear inside a batch frame (one line must stay one response
    there).

    [id] is optional and echoed back verbatim (any JSON value); budget
    fields are optional and clamped by the server-wide ceilings.

    A frame that is a JSON {e array} of request objects is a {e batch}
    (see {!Server.handle_line}): it is answered by the array of the
    members' responses, in order, on one line.

    {2 Responses}

    Every response is an object with ["id"] (echoed, [null] when the
    frame's id was absent or unparseable) and ["status"] of ["ok"],
    ["error"] or ["shed"].  [ok] responses carry ["op"] and, for
    verdict-bearing ops, ["verdict"] (["sat"] / ["unsat"] / ["unknown"]),
    ["route"], ["cache"] (["hit"] / ["miss"] / ["poisoned"] / ["none"]),
    ["nodes"], ["elapsed_ms"] and ["code"] (0, or 4 for [unknown] —
    mirroring the CLI exit codes).  [error] responses carry ["error"]
    (the {!Core.Error} kind), ["code"] (2/3/4/5/6, the documented exit
    code) and ["message"]; worker crashes (code 6) also carry a
    ["crash"] class and, when a dump was spooled, a ["dump"] path.
    [shed] responses carry ["message"] and mean admission control
    refused the request under load. *)

type op = Solve | Contain | Enumerate | Ping | Stats

val op_name : op -> string

type request = {
  id : Json.t;  (** Echoed back; [Null] when absent. *)
  op : op;
  source : string option;
  target : string option;
  q1 : string option;
  q2 : string option;
  max_nodes : int option;
  timeout : float option;
  certify : bool;
  limit : int option;
      (** Enumerate: stream at most this many answers (non-negative;
          clamped by the server ceiling). *)
  batch : int option;
      (** Enumerate: answers per ["answers"] frame (positive). *)
}

val request_of_json : Json.t -> (request, string) result
(** Typed validation of a parsed frame: the error is a message suitable
    for a [bad_input] response (unknown op, wrong field type, negative
    budget, …).  The request's [id] is recovered even on failure via
    {!id_of_json}. *)

val id_of_json : Json.t -> Json.t
(** The frame's ["id"] field, [Null] when absent or not an object. *)

(** {2 Response builders} — pure {!Json.t} constructors; serialization
    stays with the caller so the respond fault site can wrap it. *)

val ok_ping : id:Json.t -> Json.t

val ok_stats : id:Json.t -> fields:(string * Json.t) list -> Json.t

val json_of_mapping : int array -> Json.t
(** A witness as a JSON array of its values, as every response and
    [cqc enumerate --format jsonl] print it. *)

val ok_verdict :
  id:Json.t ->
  op:op ->
  verdict:Core.Solver.verdict ->
  route:string ->
  cache:string ->
  nodes:int ->
  elapsed_ms:float ->
  certified:bool option ->
  Json.t
(** [certified] is [Some true] when [--certify]-style checking ran and
    accepted (rejections become internal errors upstream); [None] when
    not requested. *)

val ok_enumerate_answers :
  id:Json.t -> answers:int array list -> Json.t
(** One streamed batch of witness arrays
    ([{"frame":"answers","answers":[[...],...]}]). *)

val ok_enumerate_final :
  id:Json.t ->
  route:string ->
  cache:string ->
  count:int ->
  complete:bool ->
  elapsed_ms:float ->
  Json.t
(** The closing frame of a streamed enumerate response: total answer
    count, whether the stream was exhausted (vs truncated by the limit),
    and the enumeration route. *)

val error : id:Json.t -> Core.Error.t -> Json.t
(** Worker-crash errors additionally carry a ["crash"] field with the
    stable {!Core.Error.crash_class_name}. *)

val error_of_exn : id:Json.t -> exn -> Json.t
(** Total classification of an escaped exception into a typed error
    response: injected faults and structured errors keep their identity,
    [Out_of_memory] becomes a worker-crash ([oom]) response, everything
    else maps through {!Core.Error.of_exn} with an [internal] catch-all.
    Shared by the server isolation boundary and the worker child so both
    sides of the fork render the same taxonomy. *)

val shed : id:Json.t -> message:string -> Json.t

val fallback_line : string
(** A pre-rendered internal-error response line (no trailing newline)
    for the double-fault path: emitting it must not allocate, parse or
    trip any fault site. *)
