(* The traced run's in-process replay: the daemon's request path, layer
   by layer, with a span around each public call.

   The calls follow the daemon's order (Serve.Server): frame parse,
   structure / query parse, containment instance, template cache lookup
   (cored on a miss), source shrink, solve, certificate check, response
   serialization and — for a sandboxed workload — one forked worker
   round trip.  Preprocess memoizes cores by canonical text, so timing
   [target_core] and [shrink_source] ahead of the cache build and the
   solve that repeat them moves that work into their own spans instead
   of counting it twice. *)

module J = Serve.Json
module P = Serve.Protocol

type span = { id : int; name : string; start : float; stop : float; parent : int; frame : int }

let spans = ref []
let next_id = ref 0
let stack = ref []
let frame_id = ref 0
let recording = ref false

let span_named name_of f =
  if not !recording then f ()
  else begin
    let id = !next_id in
    incr next_id;
    let parent = match !stack with p :: _ -> p | [] -> -1 in
    stack := id :: !stack;
    let start = Unix.gettimeofday () in
    let r = f () in
    let stop = Unix.gettimeofday () in
    stack := List.tl !stack;
    spans := { id; name = name_of r; start; stop; parent; frame = !frame_id } :: !spans;
    r
  end

let span name f = span_named (fun _ -> name) f

(* ------------------------------------------------------------------ *)
(* Replaying one frame                                                  *)
(* ------------------------------------------------------------------ *)

type state = {
  cache : Serve.Cache.t;
  seen : (string, unit) Hashtbl.t;
      (** Template keys this replay has met: an unmet one misses the cache,
          so its core is timed on its own first. *)
  sandbox : bool;
  mutable answers : int;
}

let parse_structure text = Relational.Structure_text.parse text

let lookup s b =
  match
    span_named
      (function
        | Serve.Cache.Hit _ -> "serve.cache.hit"
        | Serve.Cache.Miss _ -> "serve.cache.miss"
        | Serve.Cache.Poisoned _ -> "serve.cache.poisoned")
      (fun () -> fst (Serve.Cache.lookup s.cache b))
  with
  | Serve.Cache.Hit (t, c) -> (t, c, "hit")
  | Serve.Cache.Miss (t, c) -> (t, c, "miss")
  | Serve.Cache.Poisoned _ -> (b, Preprocess.identity_retraction b, "poisoned")

(* Mirrors Serve.Server.solve_instance / solve_now; returns whether the
   verdict (and certification) matches the frame's expectation. *)
let solve_path s ~key ~id ~op ~(expect : Gen.expect) a b =
  if not (Hashtbl.mem s.seen key) then begin
    Hashtbl.replace s.seen key ();
    span "preprocess.target_core" (fun () -> ignore (Preprocess.target_core b))
  end;
  let tmpl, core, status = lookup s b in
  span "preprocess.shrink_source" (fun () -> ignore (Preprocess.shrink_source a));
  let t0 = Unix.gettimeofday () in
  let r =
    span "core.solver.solve" (fun () ->
        Core.Solver.lift_target core
          (Core.Solver.solve ~preprocess:true a core.Preprocess.structure))
  in
  let elapsed_ms = 1000. *. (Unix.gettimeofday () -. t0) in
  let want_sat, certify =
    match expect with
    | Gen.Verdict { sat; certify } -> (sat, certify)
    | Gen.Answers _ -> invalid_arg "solve frame expecting answers"
  in
  let certified =
    if not certify then None
    else
      Option.map
        (fun c -> span "certificate.check" (fun () -> Certificate.check a tmpl c))
        (Core.Solver.certificate r)
  in
  let nodes =
    List.fold_left (fun acc (at : Core.Solver.attempt) -> acc + at.nodes) 0 r.attempts
  in
  ignore
    (span "serve.protocol.serialize" (fun () ->
         J.to_string
           (P.ok_verdict ~id ~op ~verdict:r.verdict ~route:(Core.Solver.route_name r.route)
              ~cache:status ~nodes ~elapsed_ms
              ~certified:(if certified = Some true then Some true else None))));
  if s.sandbox then
    span "serve.worker.execute" (fun () ->
        ignore
          (Serve.Worker.execute ~limits:Serve.Worker.default_limits ~id:J.Null (fun () ->
               J.Null)));
  let sat = match r.verdict with Core.Solver.Sat _ -> Some true | Unsat _ -> Some false | Unknown _ -> None in
  sat = Some want_sat && ((not certify) || certified = Some true)

(* Mirrors Serve.Server.enumerate_now: batches of 64, one pull past the
   limit to tell a complete stream from a truncated one. *)
let enumerate_path s ~id ~limit ~(expect : Gen.expect) a b =
  (* Answers are drawn against the interned template, never its core. *)
  let tmpl, _, status = lookup s b in
  let batch = 64 in
  let limit = min 10_000 (Option.value ~default:1000 limit) in
  let first =
    span "enumerate.plan" (fun () -> (Enumerate.plan a tmpl).Enumerate.seq ())
  in
  let count = ref 0 and complete = ref true and buf = ref [] in
  let flush () =
    if !buf <> [] then begin
      let answers = List.rev !buf in
      buf := [];
      ignore
        (span "serve.protocol.serialize" (fun () ->
             J.to_string (P.ok_enumerate_answers ~id ~answers)))
    end
  in
  let rec pull node =
    if !count >= limit then (
      match node with Seq.Nil -> () | Seq.Cons _ -> complete := false)
    else
      match node with
      | Seq.Nil -> ()
      | Seq.Cons (h, rest) ->
        incr count;
        buf := h :: !buf;
        if !count mod batch = 0 then flush ();
        pull (rest ())
  in
  span "enumerate.drain" (fun () -> pull first);
  flush ();
  ignore
    (span "serve.protocol.serialize" (fun () ->
         J.to_string
           (P.ok_enumerate_final ~id ~route:"" ~cache:status ~count:!count
              ~complete:!complete ~elapsed_ms:0.)));
  if !recording then s.answers <- s.answers + !count;
  match expect with
  | Gen.Answers { count = c; complete = k } -> !count = c && !complete = k
  | Gen.Verdict _ -> false

let replay_frame s (f : Gen.frame) =
  span "frame" (fun () ->
      let req =
        span "serve.json.parse" (fun () -> P.request_of_json (J.parse f.line))
      in
      match req with
      | Error _ -> false
      | Ok req -> (
        let get = Option.get in
        let id = req.P.id in
        match req.P.op with
        | P.Solve ->
          let target = get req.P.target in
          let a, b =
            span "relational.parse" (fun () ->
                (parse_structure (get req.P.source), parse_structure target))
          in
          solve_path s ~key:target ~id ~op:P.Solve ~expect:f.expect a b
        | P.Contain ->
          let q1 = get req.P.q1 in
          let a, b =
            let q1, q2 =
              span "relational.parse" (fun () ->
                  (Cq.Parser.parse q1, Cq.Parser.parse (get req.P.q2)))
            in
            span "cq.containment_instance" (fun () ->
                Core.Solver.containment_instance q1 q2)
          in
          solve_path s ~key:q1 ~id ~op:P.Contain ~expect:f.expect a b
        | P.Enumerate ->
          let a, b =
            span "relational.parse" (fun () ->
                (parse_structure (get req.P.source), parse_structure (get req.P.target)))
          in
          enumerate_path s ~id ~limit:req.P.limit ~expect:f.expect a b
        | P.Ping | P.Stats -> true))

type result = {
  frames : int;
  failed : int;
  spans : span list;
  answers : int;
}

(* Replay the workload's warm-up frames unrecorded, then record whole
   rounds of the frames that follow until [seconds] have passed. *)
let replay (w : Gen.workload) ~seed ~seconds =
  let s =
    {
      cache = Serve.Cache.create ~capacity:64 ();
      seen = Hashtbl.create 256;
      sandbox = w.sandbox;
      answers = 0;
    }
  in
  List.iter
    (fun (_, text) -> ignore (Serve.Cache.lookup s.cache (parse_structure text)))
    w.templates;
  let next = Gen.stream w ~seed in
  let failed = ref 0 and frames = ref 0 in
  for _ = 1 to w.warmup_frames do
    if not (replay_frame s (next ())) then incr failed
  done;
  recording := true;
  let t0 = Unix.gettimeofday () in
  while Unix.gettimeofday () -. t0 < seconds do
    for _ = 1 to Array.length w.families do
      incr frames;
      frame_id := !frames;
      if not (replay_frame s (next ())) then incr failed
    done
  done;
  recording := false;
  {
    frames = !frames + w.warmup_frames;
    failed = !failed;
    spans = !spans;
    answers = s.answers;
  }

(* ------------------------------------------------------------------ *)
(* Self time                                                            *)
(* ------------------------------------------------------------------ *)

(* The layer a span belongs to: its name without the last component
   ("serve.cache.hit" -> "serve.cache"); the root "frame" span's self
   time is the unaccounted part of a frame. *)
let layer name =
  match String.rindex_opt name '.' with Some i -> String.sub name 0 i | None -> name

let self_times spans =
  let child_time = Hashtbl.create 4096 in
  List.iter
    (fun sp ->
      if sp.parent >= 0 then
        Hashtbl.replace child_time sp.parent
          ((sp.stop -. sp.start)
          +. Option.value ~default:0. (Hashtbl.find_opt child_time sp.parent)))
    spans;
  List.map
    (fun sp ->
      (sp, sp.stop -. sp.start -. Option.value ~default:0. (Hashtbl.find_opt child_time sp.id)))
    spans

let write_spans path spans =
  Out_channel.with_open_bin path (fun oc ->
      List.iter
        (fun sp ->
          Printf.fprintf oc
            "{\"id\":%d,\"name\":%S,\"start\":%.9f,\"end\":%.9f,\"parent\":%d,\"frame\":%d}\n"
            sp.id sp.name sp.start sp.stop sp.parent sp.frame)
        (List.rev spans))
