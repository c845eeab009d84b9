type config = {
  cache : Cache.t;
  ceiling_nodes : int option;
  ceiling_timeout : float option;
  default_nodes : int option;
  default_timeout : float option;
  cancel : bool ref;
  max_frame_bytes : int;
  admit : unit -> [ `Go | `Shed of string | `Cancelled ];
  release : unit -> unit;
  sandbox : Worker.pool option;
  spool_dir : string option;
  threads : int;
  preprocess : bool;
  latency : Latency.t;
}

let default_config ?(cache_capacity = 64) ?(preprocess = true) () =
  {
    cache = Cache.create ~preprocess ~capacity:cache_capacity ();
    ceiling_nodes = None;
    ceiling_timeout = None;
    default_nodes = None;
    default_timeout = None;
    cancel = ref false;
    max_frame_bytes = 1 lsl 20;
    admit = (fun () -> `Go);
    release = (fun () -> ());
    sandbox = None;
    spool_dir = None;
    threads = 1;
    preprocess;
    latency = Latency.create ();
  }

(* Members of a batch frame may solve on a worker or in process; the
   largest group shares one watchdog wall-clock, so batches are bounded
   to keep a single frame from monopolising a worker slot. *)
let max_batch = 64

(* ------------------------------------------------------------------ *)
(* The request handler — the isolation boundary                         *)
(* ------------------------------------------------------------------ *)

(* Per-request budget: the request's own limits (or the server defaults)
   clamped by the server-wide ceilings, sharing the server cancel flag so
   shutdown unwinds in-flight solves. *)
let budget_for cfg ~max_nodes ~timeout =
  let clamp requested ceiling default mn =
    match
      ( (match requested with Some v -> Some v | None -> default),
        ceiling )
    with
    | Some v, Some c -> Some (mn v c)
    | None, c -> c
    | v, None -> v
  in
  Relational.Budget.create
    ?max_nodes:(clamp max_nodes cfg.ceiling_nodes cfg.default_nodes min)
    ?timeout:(clamp timeout cfg.ceiling_timeout cfg.default_timeout Float.min)
    ~cancel:cfg.cancel ()

let parse_structure ~what text =
  match Relational.Structure_text.parse text with
  | s -> s
  | exception Relational.Structure_text.Parse_error (pos, msg) ->
    Core.Error.bad_input "bad %s structure at %s: %s" what
      (Relational.Source_position.to_string pos)
      msg

let parse_query ~what text =
  match Cq.Parser.parse text with
  | q -> q
  | exception Cq.Parser.Parse_error (pos, msg) ->
    Core.Error.bad_input "bad query %s at %s: %s" what
      (Relational.Source_position.to_string pos)
      msg

let attempts_nodes attempts =
  List.fold_left
    (fun acc { Core.Solver.nodes; _ } -> acc + nodes)
    0 attempts

(* The template side routed through the cache once: the interned
   structure, its cached core retraction, and the cache status to echo
   in responses.  A poisoned template solves raw and uncored. *)
let resolve_template cfg b =
  let lookup, _fp = Cache.lookup cfg.cache b in
  match lookup with
  | Cache.Hit (interned, core) -> (interned, core, "hit")
  | Cache.Miss (interned, core) -> (interned, core, "miss")
  | Cache.Poisoned _ -> (b, Preprocess.identity_retraction b, "poisoned")

(* request_of_json validated presence; reaching [None] is a handler bug,
   not request content. *)
let validated field = function
  | Some v -> v
  | None -> Core.Error.internal "missing validated field %S" field

(* The in-process solve of one request against an already-resolved
   template.  [certify] re-derives the verdict's certificate with the
   trusted checker — a rejection is an internal error, raised and mapped
   at the boundary like everything else.  [threads] > 1 races the
   portfolio routes across domains; callers inside a forked sandbox
   worker must pass 1 — fork and domains do not mix. *)
let solve_now cfg ~threads ~id ~op ~certify ~max_nodes ~timeout a
    (b, core, cache_status) =
  let budget = budget_for cfg ~max_nodes ~timeout in
  Fault.trip Fault.Solve;
  let t0 = Unix.gettimeofday () in
  (* Solve against the cached core of the template and lift the result
     back to the raw template: witnesses compose with the retraction's
     embed, refutations gain the target-side via-preprocess step — so
     certification below still runs against [(a, b)] as the client sent
     it (modulo interning). *)
  let r =
    Core.Solver.lift_target core
      (Core.Solver.solve ~budget ~threads ~preprocess:cfg.preprocess a
         core.Preprocess.structure)
  in
  (* Microsecond precision is plenty; full-precision floats bloat frames. *)
  let elapsed_ms = Float.round (1e6 *. (Unix.gettimeofday () -. t0)) /. 1000. in
  let certified =
    if not certify then None
    else Option.map (fun _ -> true) (Core.Solver.checked_certificate a b r)
  in
  Protocol.ok_verdict ~id ~op ~verdict:r.Core.Solver.verdict
    ~route:(Core.Solver.route_name r.Core.Solver.route)
    ~cache:cache_status
    ~nodes:(attempts_nodes r.Core.Solver.attempts)
    ~elapsed_ms ~certified

(* File one response into the per-route latency histogram.  The solve's
   own [elapsed_ms] is preferred when the response carries one (so a
   sandboxed solve reports child-side time, not fork overhead); error
   and crash responses land under route "none" with the caller's
   wall-clock. *)
let record_latency cfg ~wall_ms resp =
  (match resp with
  | Json.Obj fields ->
    let route =
      match List.assoc_opt "route" fields with
      | Some (Json.String r) -> r
      | _ -> "none"
    in
    let ms =
      match List.assoc_opt "elapsed_ms" fields with
      | Some (Json.Float f) -> f
      | Some (Json.Int i) -> float_of_int i
      | _ -> wall_ms
    in
    Latency.record cfg.latency ~route ms
  | _ -> ());
  resp

let dump_for cfg ~line pool ~crash ~detail ~attempts =
  match cfg.spool_dir with
  | None -> None
  | Some dir ->
    Some
      (Dump.write ~dir
         (Dump.make ~line ~crash ~detail ~attempts
            ~limits:(Worker.pool_limits pool)))

(* Re-key a response object under the given id (crash responses fan out
   to every request they answered for). *)
let with_id id = function
  | Json.Obj fields ->
    Json.Obj (("id", id) :: List.filter (fun (k, _) -> k <> "id") fields)
  | j -> j

(* ------------------------------------------------------------------ *)
(* Admission and isolation: one place each for every request kind      *)
(* ------------------------------------------------------------------ *)

(* Run [work] holding an admission slot.  A refused frame is answered
   through [refused], which receives the refusal keyed by request id so
   a batch can give it to every member it carries. *)
let admitted cfg ~refused work =
  Fault.trip Fault.Admit;
  match cfg.admit () with
  | `Shed message ->
    Telemetry.count "serve.shed" 1;
    refused (fun id -> Protocol.shed ~id ~message)
  | `Cancelled ->
    refused (fun id ->
        Protocol.error ~id
          (Core.Error.Budget_exhausted Relational.Budget.Cancelled))
  | `Go -> Fun.protect ~finally:cfg.release work

(* Run [compute ~threads ~max_nodes] in process with [cfg.threads], or,
   with a sandbox pool, in a forked worker under {!Worker.supervise} with
   [threads = 1] (fork and domains do not mix).  [max_nodes] maps a
   request's own node limit to the one to solve under: unchanged, except
   on the degraded retry, which clamps it to the pool's [retry_nodes] — a
   crash is evidence the request is near some resource cliff, so the
   second attempt must be strictly cheaper.  The child first runs the
   synthetic crasher hook over [sources].  Parsing and cache resolution
   stay with the caller, in the parent, so a warm template's interned
   indexes are built once and shared copy-on-write with every child.  On
   both sides an escaping exception becomes the typed error of [id]. *)
let isolated cfg ~line ~id ~sources compute =
  match cfg.sandbox with
  | None -> (
    match compute ~threads:cfg.threads ~max_nodes:Fun.id with
    | j -> j
    | exception e -> Protocol.error_of_exn ~id e)
  | Some pool ->
    Worker.supervise pool ~id ~dump:(dump_for cfg ~line pool)
      (fun ~degraded ->
        List.iter Worker.test_abort_hook sources;
        let max_nodes requested =
          if not degraded then requested
          else
            let cap = Worker.retry_nodes pool in
            Some (match requested with Some n -> min n cap | None -> cap)
        in
        compute ~threads:1 ~max_nodes)

(* ------------------------------------------------------------------ *)
(* Request instances                                                    *)
(* ------------------------------------------------------------------ *)

(* The parsed, cache-resolved template of a solve or enumerate request,
   forced at most once however many requests share it, so a bad template
   text answers each of them with the same typed error. *)
let shared_template cfg (req : Protocol.request) =
  lazy
    (resolve_template cfg
       (parse_structure ~what:"target" (validated "target" req.Protocol.target)))

(* The (A, resolved-B) instance of one request.  Contain requests
   re-derive their instance (cheap) and hit the cache that the group's
   first member warmed. *)
let member_instance cfg ~shared (req : Protocol.request) =
  match req.Protocol.op with
  | Protocol.Solve | Protocol.Enumerate ->
    let a = parse_structure ~what:"source" (validated "source" req.Protocol.source) in
    (a, Lazy.force shared)
  | Protocol.Contain ->
    let q1 = parse_query ~what:"q1" (validated "q1" req.Protocol.q1) in
    let q2 = parse_query ~what:"q2" (validated "q2" req.Protocol.q2) in
    let a, b =
      match Core.Solver.containment_instance q1 q2 with
      | pair -> pair
      | exception Invalid_argument msg -> Core.Error.bad_input "%s" msg
    in
    (a, resolve_template cfg b)
  | Protocol.Ping | Protocol.Stats -> assert false

(* ------------------------------------------------------------------ *)
(* Streamed enumeration                                                 *)
(* ------------------------------------------------------------------ *)

(* Server-side answer ceilings: a request without a limit streams at
   most [default_enumerate_limit] answers, and an explicit limit is
   clamped to [max_enumerate_limit] — the daemon must never let one
   request monopolise a connection with an astronomically large answer
   set.  The final frame's ["complete"] field tells the client whether
   the stream was truncated. *)
let default_enumerate_limit = 1000
let max_enumerate_limit = 10_000
let default_enumerate_batch = 64

(* Drive the stream against the {e interned} template — never the cached
   core: answer sets (unlike verdicts) are not invariant under core
   retraction.  Full ["answers"] frames of [batch] witnesses go through
   [emit_frame] as they fill; the final frame is returned, its
   ["complete"] field as {!Enumerate.iter_limited} tells it. *)
let enumerate_now cfg ~emit_frame ~id ~max_nodes ~timeout ~limit ~batch a
    (tmpl, _core, cache_status) =
  let budget = budget_for cfg ~max_nodes ~timeout in
  Fault.trip Fault.Solve;
  let t0 = Unix.gettimeofday () in
  let limit =
    min max_enumerate_limit
      (Option.value ~default:default_enumerate_limit limit)
  in
  let batch = Option.value ~default:default_enumerate_batch batch in
  let plan = Enumerate.plan ~budget a tmpl in
  let count = ref 0 in
  let buf = ref [] in
  let flush () =
    if !buf <> [] then begin
      emit_frame (Protocol.ok_enumerate_answers ~id ~answers:(List.rev !buf));
      buf := []
    end
  in
  let complete =
    Enumerate.iter_limited ~limit
      (fun h ->
        incr count;
        buf := h :: !buf;
        if !count mod batch = 0 then flush ())
      plan.Enumerate.seq
  in
  flush ();
  let elapsed_ms = Float.round (1e6 *. (Unix.gettimeofday () -. t0)) /. 1000. in
  Protocol.ok_enumerate_final ~id
    ~route:(Enumerate.route_name plan.Enumerate.route)
    ~cache:cache_status ~count:!count ~complete ~elapsed_ms

(* Enumerate (A, B), streaming answers frames through [emit]; returns
   the final frame as the request's response line.  In process, frames
   go out as they fill.  A forked worker cannot stream through the fork
   boundary, so it holds every frame and returns them as one [Json.List]
   — distinguishable from a terminal crash response, which is an object
   — and the parent replays all but the last through [emit].  An
   exception mid-stream (budget exhaustion, cancellation) ends the
   stream with the typed error response; already-emitted answers frames
   stand. *)
let enumerate_instance cfg ~line ~emit (req : Protocol.request) =
  let id = req.Protocol.id in
  let a, resolved = member_instance cfg ~shared:(shared_template cfg req) req in
  let emit_json j =
    emit
      (match Json.to_string j with
      | s -> s
      | exception _ -> Protocol.fallback_line)
  in
  let t0 = Unix.gettimeofday () in
  let reply =
    isolated cfg ~line ~id ~sources:[ a ] (fun ~threads:_ ~max_nodes ->
        let held = ref [] in
        let emit_frame j =
          if Option.is_none cfg.sandbox then emit_json j else held := j :: !held
        in
        let final =
          enumerate_now cfg ~emit_frame ~id
            ~max_nodes:(max_nodes req.Protocol.max_nodes)
            ~timeout:req.Protocol.timeout ~limit:req.Protocol.limit
            ~batch:req.Protocol.batch a resolved
        in
        Json.List (List.rev (final :: !held)))
  in
  let final =
    match reply with
    | Json.List (_ :: _ as frames) ->
      let rec replay = function
        | [ last ] -> last
        | f :: rest ->
          emit_json f;
          replay rest
        | [] -> assert false
      in
      replay frames
    | crash -> with_id id crash
  in
  (* Count answers parent-side off the final frame: a sandboxed stream
     produces them in the forked child, whose telemetry dies with it. *)
  (match Json.int_member "count" final with
  | Some n -> Telemetry.count "serve.enumerate.answers" n
  | None -> ());
  record_latency cfg ~wall_ms:((Unix.gettimeofday () -. t0) *. 1000.) final

(* ------------------------------------------------------------------ *)
(* Solve and contain: template groups                                   *)
(* ------------------------------------------------------------------ *)

(* Verdict-bearing requests are answered in template groups.  A JSON
   array frame is a batch: each element is a request, and the response
   is the array of their responses, in order, on one line.  A single
   solve or contain frame is a batch of one.  The requests of one frame
   pass admission once as a unit, and members sharing a template —
   identical "target" text for solve, identical "q1" text for contain
   (the template side of a containment instance is q1's canonical
   database) — are grouped so that each distinct template is parsed and
   cache-resolved once and, with a sandbox, each group costs one forked
   worker instead of one per member.  That is the whole point of
   batching: N queries against the same structure amortize one cache
   lookup and one fork. *)

let template_key (req : Protocol.request) =
  match req.Protocol.op with
  | Protocol.Solve -> ("solve", Option.value ~default:"" req.Protocol.target)
  | Protocol.Contain -> ("contain", Option.value ~default:"" req.Protocol.q1)
  | Protocol.Enumerate | Protocol.Ping | Protocol.Stats -> assert false

(* Answer one template group into [responses].  The isolated compute
   returns the member responses as one [Json.List]; a terminal crash
   response is an object instead, given to every member under its own
   id so accounting stays one-response-per-member. *)
let solve_group cfg ~line responses members =
  let shared = shared_template cfg (snd (List.hd members)) in
  let runnable =
    List.filter_map
      (fun (i, req) ->
        match member_instance cfg ~shared req with
        | ab -> Some (i, req, ab)
        | exception e ->
          responses.(i) <- Protocol.error_of_exn ~id:req.Protocol.id e;
          None)
      members
  in
  match runnable with
  | [] -> ()
  | runnable -> (
    let ids = List.map (fun (_, req, _) -> req.Protocol.id) runnable in
    let t0 = Unix.gettimeofday () in
    let reply =
      isolated cfg ~line ~id:(Json.List ids)
        ~sources:(List.map (fun (_, _, (a, _)) -> a) runnable)
        (fun ~threads ~max_nodes ->
          Json.List
            (List.map
               (fun (_, (req : Protocol.request), (a, b)) ->
                 try
                   solve_now cfg ~threads ~id:req.id ~op:req.op
                     ~certify:req.certify ~max_nodes:(max_nodes req.max_nodes)
                     ~timeout:req.timeout a b
                 with e -> Protocol.error_of_exn ~id:req.id e)
               runnable))
    in
    let wall_ms = (Unix.gettimeofday () -. t0) *. 1000. in
    let answer (i, _, _) r = responses.(i) <- record_latency cfg ~wall_ms r in
    match reply with
    | Json.List rs when List.length rs = List.length runnable ->
      List.iter2 answer runnable rs
    | crash ->
      List.iter2 answer runnable (List.map (fun id -> with_id id crash) ids))

(* Answer the solve and contain requests [(i, req)] of one frame into
   [responses]: one admission, then one group per template, groups in
   order of first appearance and requests in order within each group. *)
let solve_members cfg ~line responses solves =
  admitted cfg
    ~refused:(fun refusal ->
      List.iter
        (fun (i, (req : Protocol.request)) -> responses.(i) <- refusal req.id)
        solves)
    (fun () ->
      let rec groups = function
        | [] -> []
        | (_, req) :: _ as solves ->
          let key = template_key req in
          let group, rest =
            List.partition (fun (_, r) -> template_key r = key) solves
          in
          group :: groups rest
      in
      List.iter (solve_group cfg ~line responses) (groups solves))

let stats_fields cfg =
  let c = Cache.stats cfg.cache in
  [
    ( "cache",
      Json.Obj
        [
          ("hits", Json.Int c.Cache.hits);
          ("misses", Json.Int c.Cache.misses);
          ("poisoned", Json.Int c.Cache.poisoned);
          ("build_failures", Json.Int c.Cache.build_failures);
          ("evictions", Json.Int c.Cache.evictions);
          ("entries", Json.Int c.Cache.entries);
          ("capacity", Json.Int c.Cache.capacity);
          ( "templates",
            Json.List
              (List.map
                 (fun (ts : Cache.template_stats) ->
                   Json.Obj
                     [
                       ("fingerprint", Json.String ts.Cache.t_fingerprint);
                       ("raw_elements", Json.Int ts.Cache.t_raw_elements);
                       ("core_elements", Json.Int ts.Cache.t_core_elements);
                     ])
                 c.Cache.templates) );
        ] );
    ( "faults",
      Json.Obj
        (List.map
           (fun (site, n) -> (site, Json.Int n))
           (Fault.injected_per_site ())) );
    ("latency_ms", Latency.to_json cfg.latency);
    ( "workers",
      match cfg.sandbox with
      | None -> Json.Obj [ ("sandbox", Json.Bool false) ]
      | Some pool ->
        let w = Worker.stats pool in
        Json.Obj
          [
            ("sandbox", Json.Bool true);
            ("live", Json.Int w.Worker.live);
            ("spawned", Json.Int w.Worker.spawned);
            ("completed", Json.Int w.Worker.completed);
            ("retries", Json.Int w.Worker.retries);
            ("dumps", Json.Int w.Worker.dumps);
            ( "crashes",
              Json.Obj
                [
                  ("total", Json.Int w.Worker.crashes_total);
                  ("signal", Json.Int w.Worker.crashes_signal);
                  ("oom", Json.Int w.Worker.crashes_oom);
                  ("cpu", Json.Int w.Worker.crashes_cpu);
                  ("watchdog", Json.Int w.Worker.crashes_watchdog);
                  ("protocol", Json.Int w.Worker.crashes_protocol);
                  ("exit", Json.Int w.Worker.crashes_exit);
                ] );
          ] );
  ]

let dispatch cfg ~line ~emit (req : Protocol.request) =
  let id = req.Protocol.id in
  match req.Protocol.op with
  | Protocol.Ping -> Protocol.ok_ping ~id
  | Protocol.Stats -> Protocol.ok_stats ~id ~fields:(stats_fields cfg)
  | Protocol.Enumerate ->
    admitted cfg ~refused:(fun refusal -> refusal id) (fun () ->
        Telemetry.count "serve.enumerate" 1;
        enumerate_instance cfg ~line ~emit req)
  | Protocol.Solve | Protocol.Contain ->
    (* A single frame is a batch of one. *)
    let responses = [| Json.Null |] in
    solve_members cfg ~line responses [ (0, req) ];
    responses.(0)

let handle_batch cfg ~line items =
  let n = List.length items in
  if n = 0 then Core.Error.bad_input "batch frame must contain at least one request";
  if n > max_batch then
    Core.Error.bad_input "batch frame of %d requests exceeds the %d-request limit"
      n max_batch;
  Telemetry.count "serve.batch" 1;
  Telemetry.count "serve.batch.requests" n;
  let responses = Array.make n Json.Null in
  let solves = ref [] in
  List.iteri
    (fun i item ->
      match Protocol.request_of_json item with
      | Error msg ->
        responses.(i) <-
          Protocol.error ~id:(Protocol.id_of_json item)
            (Core.Error.Bad_input msg)
      | Ok req -> (
        match req.Protocol.op with
        | Protocol.Ping | Protocol.Stats ->
          responses.(i) <- dispatch cfg ~line ~emit:ignore req
        | Protocol.Enumerate ->
          (* A batch answers one line per frame; a streamed op cannot
             keep that contract, so it must arrive as its own frame. *)
          responses.(i) <-
            Protocol.error ~id:req.Protocol.id
              (Core.Error.Bad_input
                 "enumerate cannot appear inside a batch frame: it streams \
                  multiple response lines")
        | Protocol.Solve | Protocol.Contain ->
          solves := (i, req) :: !solves))
    items;
  (match List.rev !solves with
  | [] -> ()
  | solves -> solve_members cfg ~line responses solves);
  Json.List (Array.to_list responses)

let handle_line ?(emit = fun _ -> ()) cfg line =
  Telemetry.count "serve.requests" 1;
  let id = ref Json.Null in
  let response =
    try
      if String.length line > cfg.max_frame_bytes then
        Core.Error.bad_input "frame of %d bytes exceeds the %d-byte limit"
          (String.length line) cfg.max_frame_bytes;
      Fault.trip Fault.Parse;
      let j =
        match Json.parse ~max_bytes:cfg.max_frame_bytes line with
        | j -> j
        | exception Json.Parse_error msg ->
          Core.Error.bad_input "bad frame: %s" msg
      in
      id := Protocol.id_of_json j;
      match j with
      | Json.List items -> handle_batch cfg ~line items
      | _ -> (
        match Protocol.request_of_json j with
        | Error msg -> Protocol.error ~id:!id (Core.Error.Bad_input msg)
        | Ok req -> dispatch cfg ~line ~emit req)
    with e -> Protocol.error_of_exn ~id:!id e
  in
  let count_status = function
    | Json.Obj fields -> (
      match List.assoc_opt "status" fields with
      | Some (Json.String s) -> Telemetry.count ("serve.response." ^ s) 1
      | _ -> ())
    | _ -> ()
  in
  (match response with
  | Json.List members -> List.iter count_status members
  | r -> count_status r);
  match
    Fault.trip Fault.Respond;
    Json.to_string response
  with
  | line -> line
  | exception _ -> Protocol.fallback_line

(* ------------------------------------------------------------------ *)
(* Admission control                                                    *)
(* ------------------------------------------------------------------ *)

module Admission = struct
  type t = {
    lock : Mutex.t;
    freed : Condition.t;
    max_inflight : int;
    max_queue : int;
    shutdown : bool ref;
    mutable inflight : int;
    mutable waiting : int;
  }

  let create ~max_inflight ~max_queue ~shutdown =
    {
      lock = Mutex.create ();
      freed = Condition.create ();
      max_inflight = max 1 max_inflight;
      max_queue = max 0 max_queue;
      shutdown;
      inflight = 0;
      waiting = 0;
    }

  let admit t =
    Mutex.lock t.lock;
    let rec decide () =
      if !(t.shutdown) then `Cancelled
      else if t.inflight < t.max_inflight then begin
        t.inflight <- t.inflight + 1;
        `Go
      end
      else if t.waiting >= t.max_queue then
        `Shed
          (Printf.sprintf
             "server overloaded: %d in flight, %d queued (limits %d/%d)"
             t.inflight t.waiting t.max_inflight t.max_queue)
      else begin
        (* Backpressure: this connection thread parks here, which also
           stops it from reading further frames off its socket. *)
        t.waiting <- t.waiting + 1;
        Condition.wait t.freed t.lock;
        t.waiting <- t.waiting - 1;
        decide ()
      end
    in
    let r = decide () in
    Mutex.unlock t.lock;
    (match r with `Go -> Telemetry.count "serve.admitted" 1 | _ -> ());
    r

  let release t =
    Mutex.lock t.lock;
    t.inflight <- t.inflight - 1;
    Condition.signal t.freed;
    Mutex.unlock t.lock

  let wake_all t =
    Mutex.lock t.lock;
    Condition.broadcast t.freed;
    Mutex.unlock t.lock
end

(* ------------------------------------------------------------------ *)
(* The daemon                                                           *)
(* ------------------------------------------------------------------ *)

type socket_mode = Unix_socket of string | Stdio

type options = {
  mode : socket_mode;
  max_inflight : int;
  max_queue : int;
  cache_capacity : int;
  opt_ceiling_nodes : int option;
  opt_ceiling_timeout : float option;
  opt_default_nodes : int option;
  opt_default_timeout : float option;
  opt_max_frame_bytes : int;
  opt_sandbox : bool;
  opt_sandbox_mem_bytes : int option;
  opt_sandbox_cpu_seconds : int option;
  opt_sandbox_wall_seconds : float;
  opt_spool_dir : string option;
  opt_threads : int;
  opt_warm_manifest : string option;
  opt_preprocess : bool;
}

(* Cache warm-up: the manifest lists structure files, one path per line
   (blank lines and #-comments skipped; relative paths resolve against
   the manifest's own directory).  Runs at startup, outside the
   isolation boundary on purpose: a missing file or bad template text
   must fail the daemon loudly at launch, not poison a cache key
   silently under traffic. *)
let warm_cache cache manifest =
  let dir = Filename.dirname manifest in
  let read_file what path =
    match In_channel.with_open_text path In_channel.input_all with
    | text -> text
    | exception Sys_error msg -> Core.Error.bad_input "cannot read %s: %s" what msg
  in
  let warmed = ref 0 in
  String.split_on_char '\n' (read_file "warm manifest" manifest)
  |> List.iter (fun raw ->
         let path = String.trim raw in
         if path <> "" && path.[0] <> '#' then begin
           let path =
             if Filename.is_relative path then Filename.concat dir path
             else path
           in
           let b =
             parse_structure
               ~what:(Printf.sprintf "warm template (%s)" path)
               (read_file (Printf.sprintf "warm template %s" path) path)
           in
           (match Cache.lookup cache b with
           | Cache.Poisoned msg, _ ->
             Core.Error.bad_input "warm template %s failed to build: %s" path
               msg
           | (Cache.Hit _ | Cache.Miss _), _ -> ());
           incr warmed
         end);
  Telemetry.count "serve.cache.warmed" !warmed;
  !warmed

(* EINTR-safe read: signals interrupt blocked reads; only shutdown (via
   socket shutdown, yielding 0) should end the loop. *)
let rec safe_read fd buf off len =
  match Unix.read fd buf off len with
  | n -> n
  | exception Unix.Unix_error (Unix.EINTR, _, _) -> safe_read fd buf off len

let rec write_all fd s off len =
  if len > 0 then begin
    match Unix.write_substring fd s off len with
    | n -> write_all fd s (off + n) (len - n)
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> write_all fd s off len
  end

(* One byte stream: split into lines, feed each through the handler,
   answer one response line per frame.  A line that outgrows the frame
   limit is answered once and discarded to the next newline, so a
   malicious endless frame cannot hold the buffer — this reader backs
   both the socket connections and stdio mode, which previously buffered
   unbounded lines through [In_channel.input_line].  Any IO error (EPIPE,
   reset) just ends this stream — never the daemon. *)
let serve_stream cfg ~shutdown ~in_fd ~respond =
  let chunk = Bytes.create 8192 in
  let line = Buffer.create 1024 in
  let discarding = ref false in
  (* Pre-empt the handler: the frame is already too big to buffer, so the
     typed response is built directly (same shape handle_line would
     produce for an oversized frame). *)
  let overflow_response () =
    Telemetry.count "serve.requests" 1;
    Telemetry.count "serve.response.error" 1;
    match
      Json.to_string
        (Protocol.error ~id:Json.Null
           (Core.Error.Bad_input
              (Printf.sprintf "frame exceeds the %d-byte limit"
                 cfg.max_frame_bytes)))
    with
    | s -> s
    | exception _ -> Protocol.fallback_line
  in
  try
    let running = ref true in
    while !running do
      let n = safe_read in_fd chunk 0 (Bytes.length chunk) in
      if n = 0 then running := false
      else
        for i = 0 to n - 1 do
          match Bytes.get chunk i with
          | '\n' ->
            if !discarding then discarding := false
            else begin
              let frame = Buffer.contents line in
              if String.trim frame <> "" then
                respond (handle_line ~emit:respond cfg frame)
            end;
            Buffer.clear line
          | c ->
            if not !discarding then begin
              Buffer.add_char line c;
              if Buffer.length line > cfg.max_frame_bytes then begin
                respond (overflow_response ());
                Buffer.clear line;
                discarding := true
              end
            end
        done;
      if !shutdown && Buffer.length line = 0 then running := false
    done
  with _ -> ()

let serve_connection cfg ~shutdown fd =
  serve_stream cfg ~shutdown ~in_fd:fd ~respond:(fun s ->
      write_all fd (s ^ "\n") 0 (String.length s + 1))

type registry = {
  reg_lock : Mutex.t;
  mutable conns : (int * Unix.file_descr) list;
  mutable next_id : int;
}

let registry_add reg fd =
  Mutex.lock reg.reg_lock;
  let id = reg.next_id in
  reg.next_id <- id + 1;
  reg.conns <- (id, fd) :: reg.conns;
  Mutex.unlock reg.reg_lock;
  id

let registry_remove reg id =
  Mutex.lock reg.reg_lock;
  reg.conns <- List.filter (fun (i, _) -> i <> id) reg.conns;
  Mutex.unlock reg.reg_lock

let registry_shutdown_all reg =
  Mutex.lock reg.reg_lock;
  let fds = List.map snd reg.conns in
  Mutex.unlock reg.reg_lock;
  List.iter
    (fun fd -> try Unix.shutdown fd Unix.SHUTDOWN_RECEIVE with _ -> ())
    fds

let bind_unix_socket path =
  let sock = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  (try
     if Sys.file_exists path then begin
       (* A live daemon answers a connect; a stale file refuses it. *)
       let probe = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
       match Unix.connect probe (Unix.ADDR_UNIX path) with
       | () ->
         Unix.close probe;
         Core.Error.bad_input "socket %s is already being served" path
       | exception Unix.Unix_error ((Unix.ECONNREFUSED | Unix.ENOENT), _, _)
         ->
         Unix.close probe;
         Sys.remove path
       | exception e ->
         (try Unix.close probe with _ -> ());
         raise e
     end;
     Unix.bind sock (Unix.ADDR_UNIX path);
     Unix.listen sock 64
   with e ->
     (try Unix.close sock with _ -> ());
     raise e);
  sock

let pool_of_options opts =
  if not opts.opt_sandbox then None
  else
    Some
      (Worker.create_pool
         ~limits:
           {
             Worker.mem_bytes = opts.opt_sandbox_mem_bytes;
             cpu_seconds = opts.opt_sandbox_cpu_seconds;
             wall_seconds = opts.opt_sandbox_wall_seconds;
           }
         ())

let config_of_options opts ~cancel ~admission =
  {
    cache =
      Cache.create ~preprocess:opts.opt_preprocess
        ~capacity:opts.cache_capacity ();
    ceiling_nodes = opts.opt_ceiling_nodes;
    ceiling_timeout = opts.opt_ceiling_timeout;
    default_nodes = opts.opt_default_nodes;
    default_timeout = opts.opt_default_timeout;
    cancel;
    max_frame_bytes = opts.opt_max_frame_bytes;
    admit =
      (fun () ->
        match admission with
        | Some adm -> Admission.admit adm
        | None -> `Go);
    release =
      (fun () ->
        match admission with Some adm -> Admission.release adm | None -> ());
    sandbox = pool_of_options opts;
    spool_dir = opts.opt_spool_dir;
    threads = max 1 opts.opt_threads;
    preprocess = opts.opt_preprocess;
    latency = Latency.create ();
  }

let run_stdio cfg ~shutdown =
  serve_stream cfg ~shutdown ~in_fd:Unix.stdin ~respond:(fun s ->
      write_all Unix.stdout (s ^ "\n") 0 (String.length s + 1));
  0

let run_socket cfg ~shutdown ~admission path =
  let listener = bind_unix_socket path in
  (* Self-pipe: the signal handler writes one byte so the select below
     wakes even when the signal lands on some worker thread. *)
  let wake_r, wake_w = Unix.pipe ~cloexec:true () in
  let reg = { reg_lock = Mutex.create (); conns = []; next_id = 0 } in
  let threads = ref [] in
  let note_shutdown () =
    shutdown := true;
    cfg.cancel := true;
    try ignore (Unix.write_substring wake_w "x" 0 1) with _ -> ()
  in
  let previous_handlers =
    List.map
      (fun signal ->
        (signal, Sys.signal signal (Sys.Signal_handle (fun _ -> note_shutdown ()))))
      [ Sys.sigterm; Sys.sigint ]
  in
  let accept_loop () =
    while not !shutdown do
      match Unix.select [ listener; wake_r ] [] [] (-1.) with
      | exception Unix.Unix_error (Unix.EINTR, _, _) -> ()
      | readable, _, _ ->
        if List.memq listener readable && not !shutdown then begin
          match Unix.accept ~cloexec:true listener with
          | exception Unix.Unix_error (Unix.EINTR, _, _) -> ()
          | fd, _ ->
            let id = registry_add reg fd in
            let t =
              Thread.create
                (fun () ->
                  Fun.protect
                    ~finally:(fun () ->
                      registry_remove reg id;
                      try Unix.close fd with _ -> ())
                    (fun () -> serve_connection cfg ~shutdown fd))
                ()
            in
            threads := t :: !threads
        end
    done
  in
  Fun.protect
    ~finally:(fun () ->
      (* Drain: cancel in-flight budgets, release queued requests, kick
         blocked readers, then wait for every connection thread. *)
      shutdown := true;
      cfg.cancel := true;
      Option.iter Admission.wake_all admission;
      registry_shutdown_all reg;
      List.iter Thread.join !threads;
      List.iter
        (fun (signal, behavior) -> try Sys.set_signal signal behavior with _ -> ())
        previous_handlers;
      (try Unix.close listener with _ -> ());
      (try Unix.close wake_r with _ -> ());
      (try Unix.close wake_w with _ -> ());
      try Sys.remove path with _ -> ())
    accept_loop;
  0

let run opts =
  Fault.arm_from_env ();
  (* A worker hitting a closed peer must get EPIPE (handled per
     connection), not a process-killing SIGPIPE. *)
  (try Sys.set_signal Sys.sigpipe Sys.Signal_ignore with Invalid_argument _ -> ());
  let shutdown = ref false in
  let cancel = ref false in
  match opts.mode with
  | Stdio ->
    let cfg = config_of_options opts ~cancel ~admission:None in
    Option.iter (fun m -> ignore (warm_cache cfg.cache m)) opts.opt_warm_manifest;
    let note_shutdown () =
      shutdown := true;
      cancel := true
    in
    List.iter
      (fun signal ->
        try
          ignore (Sys.signal signal (Sys.Signal_handle (fun _ -> note_shutdown ())))
        with Invalid_argument _ -> ())
      [ Sys.sigterm; Sys.sigint ];
    run_stdio cfg ~shutdown
  | Unix_socket path ->
    let admission =
      Admission.create ~max_inflight:opts.max_inflight ~max_queue:opts.max_queue
        ~shutdown
    in
    let cfg = config_of_options opts ~cancel ~admission:(Some admission) in
    Option.iter (fun m -> ignore (warm_cache cfg.cache m)) opts.opt_warm_manifest;
    run_socket cfg ~shutdown ~admission:(Some admission) path
