(* cqc: a command-line front end to the library.

     cqc contain 'Q(X) :- E(X,Y), E(Y,Z).' 'Q(X) :- E(X,Y).'
     cqc minimize 'Q(X) :- E(X,Y), E(X,Z).'
     cqc evaluate 'Q(X,Y) :- E(X,Z), E(Z,Y).' graph.st
     cqc solve [--max-nodes N] [--timeout S] source.st target.st
     cqc classify target.st
     cqc treewidth source.st

   Structures are given in the Structure_text format (see --help).

   Exit codes (the Core.Error contract): 0 success, 2 bad input,
   3 unsupported, 4 budget exhausted (answer unknown), 5 internal error.
   Malformed inputs exit with a located message, never a backtrace. *)

open Cmdliner

(* Every command body runs inside [run]: structured errors print one line
   on stderr and map to their documented exit code. *)
let run f =
  match Core.Error.guard f with
  | Ok code -> code
  | Error e ->
    Printf.eprintf "cqc: %s\n%!" (Core.Error.to_string e);
    Core.Error.exit_code e

(* File IO failures must surface as located bad-input errors (exit 2),
   never a backtrace: [Sys_error] messages get the path prefixed when the
   runtime omitted it ("Is a directory"), and [Unix_error] (sockets,
   permissions) routes through the same taxonomy. *)
let read_file path =
  try
    if path = "-" then In_channel.input_all In_channel.stdin
    else In_channel.with_open_text path In_channel.input_all
  with
  | Sys_error msg ->
    let n = String.length path in
    if String.length msg >= n && String.sub msg 0 n = path then
      Core.Error.bad_input "%s" msg
    else Core.Error.bad_input "%s: %s" path msg
  | Unix.Unix_error (e, _, _) ->
    Core.Error.bad_input "%s: %s" path (Unix.error_message e)

let read_structure path =
  let text = read_file path in
  match Relational.Structure_text.parse text with
  | s -> s
  | exception Relational.Structure_text.Parse_error (pos, msg) ->
    Core.Error.bad_input "%s: %s: %s" path (Relational.Source_position.to_string pos)
      msg

let parse_query text =
  match Cq.Parser.parse text with
  | q -> q
  | exception Cq.Parser.Parse_error (pos, msg) ->
    Core.Error.bad_input "bad query at %s: %s"
      (Relational.Source_position.to_string pos)
      msg

let query_arg ~docv pos_index =
  Arg.(required & pos pos_index (some string) None & info [] ~docv)

let structure_arg ~docv pos_index =
  Arg.(required & pos pos_index (some string) None & info [] ~docv)

(* ------------------------------------------------------------------ *)
(* Budget flags                                                         *)
(* ------------------------------------------------------------------ *)

(* Budget quantities must be positive: 0 or a negative value would build
   an instantly-exhausted budget that answers 'unknown' without doing any
   work, which is never what the caller meant — reject it as a usage
   error at the command line. *)
let positive_int_why why =
  let parse s =
    match int_of_string_opt s with
    | Some n when n > 0 -> Ok n
    | Some _ -> Error (`Msg (Printf.sprintf "%s is not positive (%s)" s why))
    | None -> Error (`Msg (Printf.sprintf "invalid value %S, expected an integer" s))
  in
  Arg.conv ~docv:"N" (parse, Format.pp_print_int)

let positive_int =
  positive_int_why "a budget of 0 nodes would be exhausted before any work"

let positive_float =
  let parse s =
    match float_of_string_opt s with
    | Some f when f > 0. && Float.is_finite f -> Ok f
    | Some _ ->
      Error
        (`Msg
          (Printf.sprintf
             "%s is not positive (a deadline of 0 seconds would expire before \
              any work)"
             s))
    | None -> Error (`Msg (Printf.sprintf "invalid value %S, expected a number" s))
  in
  Arg.conv ~docv:"SECONDS" (parse, Format.pp_print_float)

let nonnegative_int =
  let parse s =
    match int_of_string_opt s with
    | Some n when n >= 0 -> Ok n
    | Some _ -> Error (`Msg (Printf.sprintf "%s is negative" s))
    | None -> Error (`Msg (Printf.sprintf "invalid value %S, expected an integer" s))
  in
  Arg.conv ~docv:"N" (parse, Format.pp_print_int)

let max_nodes_term =
  Arg.(
    value
    & opt (some positive_int) None
    & info [ "max-nodes" ] ~docv:"N"
        ~doc:
          "Abort any single solving route after $(docv) search nodes; the \
           dispatcher degrades to the next route and answers 'unknown' (exit \
           code 4) only when every route is exhausted.  Must be positive.")

let timeout_term =
  Arg.(
    value
    & opt (some positive_float) None
    & info [ "timeout" ] ~docv:"SECONDS"
        ~doc:
          "Wall-clock deadline for the whole solve, in seconds (may be \
           fractional).  On expiry the answer is 'unknown' (exit code 4).  \
           Must be positive.")

let budget_of ~max_nodes ~timeout =
  match (max_nodes, timeout) with
  | None, None -> Relational.Budget.unlimited
  | _ -> Relational.Budget.create ?max_nodes ?timeout ()

let threads_term =
  Arg.(
    value
    & opt (positive_int_why "racing needs at least one domain to run on") 1
    & info [ "threads" ] ~docv:"N"
        ~doc:
          "Race the applicable solving routes on $(docv) domains: the first \
           route whose claim passes the certificate checker wins and cancels \
           the rest (recorded as cancelled attempts).  1 (the default) is \
           the sequential dispatcher.  Must be positive.")

let no_preprocess_term =
  Arg.(
    value & flag
    & info [ "no-preprocess" ]
        ~doc:
          "Never shrink the source.  By default, when no route ahead of the \
           preprocessing boundary (Schaefer-direct, Hell-Nesetril, \
           Booleanization, acyclic) decides the raw instance, the source is \
           split into connected components, its dominated elements folded \
           and each piece cored before the remaining routes run; with this \
           flag those routes run on the raw instance.  Preprocessing never \
           changes a verdict — every shrink is certified and replayed by \
           the checker — so this flag exists for differential testing and \
           for measuring the pipeline's own overhead.")

(* ------------------------------------------------------------------ *)
(* Telemetry flags                                                      *)
(* ------------------------------------------------------------------ *)

let metrics_json_term =
  Arg.(
    value
    & opt (some string) None
    & info [ "metrics-json" ] ~docv:"FILE"
        ~doc:
          "Collect telemetry (per-route spans, engine counters, timers) and \
           write it as one JSON document to $(docv) on exit — also on error \
           exits, so budget-exhausted runs still report the work they did.  \
           Use '-' for stdout; human-oriented reports go to stderr, so \
           stdout stays machine-parseable.")

let trace_out_term =
  Arg.(
    value
    & opt (some string) None
    & info [ "trace-out" ] ~docv:"FILE"
        ~doc:
          "Stream telemetry records to $(docv) as they are emitted, one \
           JSON object per line (JSONL).  Use '-' for stdout.")

(* Assemble the memory sink's records into the one-document metrics
   report: records grouped by type, already in emission order. *)
let metrics_document ~command records =
  let spans = Buffer.create 1024
  and counters = Buffer.create 256
  and timers = Buffer.create 256 in
  let put buf r =
    if Buffer.length buf > 0 then Buffer.add_char buf ',';
    Buffer.add_string buf (Telemetry.json_of_record r)
  in
  List.iter
    (fun r ->
      match r with
      | Telemetry.Span _ -> put spans r
      | Telemetry.Counter _ -> put counters r
      | Telemetry.Timer _ -> put timers r)
    records;
  Printf.sprintf
    "{\"version\":1,\"command\":\"%s\",\"spans\":[%s],\"counters\":[%s],\"timers\":[%s]}\n"
    command (Buffer.contents spans) (Buffer.contents counters)
    (Buffer.contents timers)

(* Install the sinks the flags ask for, run the command body, and — even
   when it escapes with Budget.Exhausted or a structured error — flush
   totals, write the metrics document, and close what we opened. *)
let with_telemetry ~command ~metrics_json ~trace_out f =
  match (metrics_json, trace_out) with
  | None, None -> f ()
  | _ ->
    let opened = ref [] in
    let channel path =
      if path = "-" then stdout
      else begin
        let oc = open_out path in
        opened := oc :: !opened;
        oc
      end
    in
    let trace_sink = Option.map (fun p -> Telemetry.Sink.jsonl (channel p)) trace_out in
    let mem = Option.map (fun p -> (p, Telemetry.Sink.memory ())) metrics_json in
    let sink =
      match (trace_sink, mem) with
      | Some t, Some (_, (m, _)) -> Telemetry.Sink.tee m t
      | Some t, None -> t
      | None, Some (_, (m, _)) -> m
      | None, None -> assert false
    in
    Telemetry.reset ();
    Telemetry.set_sink (Some sink);
    Fun.protect
      ~finally:(fun () ->
        Telemetry.flush ();
        Telemetry.set_sink None;
        Telemetry.reset ();
        Option.iter
          (fun (path, (_, drain)) ->
            let oc = channel path in
            output_string oc (metrics_document ~command (drain ()));
            flush oc)
          mem;
        List.iter close_out !opened)
      f

let print_attempts attempts =
  List.iter
    (fun { Core.Solver.route; nodes; outcome; counters } ->
      let outcome =
        match outcome with
        | Core.Solver.Pruned -> "pruned domains"
        | Core.Solver.Exhausted reason ->
          "exhausted: " ^ Relational.Budget.reason_to_string reason
        | (Core.Solver.Decided | Core.Solver.Inapplicable | Core.Solver.Cancelled)
          as o ->
          Core.Solver.outcome_name o
      in
      Format.eprintf "  %-32s %8d nodes  %s@." (Core.Solver.route_name route) nodes
        outcome;
      match counters with
      | [] -> ()
      | counters ->
        Format.eprintf "  %-32s %s@." ""
          (String.concat ", "
             (List.map (fun (name, n) -> Printf.sprintf "%s %d" name n) counters)))
    attempts

(* The exit code a three-valued verdict maps to: definite answers exit 0,
   [Unknown] exits with the budget-exhausted code. *)
let verdict_exit = function
  | Core.Solver.Sat _ | Core.Solver.Unsat _ -> 0
  | Core.Solver.Unknown reason ->
    Core.Error.exit_code (Core.Error.Budget_exhausted reason)

let certify_term =
  Arg.(
    value & flag
    & info [ "certify" ]
        ~doc:
          "Re-validate the verdict's certificate with the trusted checker \
           before printing: the witness homomorphism for 'sat', the \
           refutation (unit-propagation trace, implication cycle, GF(2) \
           combination, odd walk, emptied semi-join chain or DP table, \
           Spoiler win, or exhausted search tree) for 'unsat'.  A rejected \
           certificate is an internal error (exit code 5); an 'unknown' \
           verdict carries no certificate and is unaffected.")

(* Run the trusted checker on the verdict's certificate against the raw
   instance pair; a rejection is an internal error, exit 5. *)
let certify_against (s, t) r =
  match Core.Solver.checked_certificate s t r with
  | None -> Format.eprintf "certificate: none (verdict is unknown)@."
  | Some c ->
    Format.eprintf "certificate: %s, accepted by the checker@."
      (Certificate.describe c)

(* The Core.Error exit-code contract, shown in every subcommand's man
   page in place of cmdliner's defaults. *)
let exits =
  Cmd.Exit.info 0 ~doc:"on success ('sat' and 'unsat' are both answers)."
  :: Cmd.Exit.info 2
       ~doc:
         "on malformed input: bad query/structure text (with line/column), \
          violated precondition, unreadable file."
  :: Cmd.Exit.info 3
       ~doc:"when the input is outside the requested algorithm's capabilities."
  :: Cmd.Exit.info 4
       ~doc:"when every route exhausted its budget; the answer is unknown, not wrong."
  :: Cmd.Exit.info 5 ~doc:"on an internal error (a bug in this code base)."
  :: Cmd.Exit.info 6
       ~doc:
         "when a sandboxed worker process died (OOM kill, rlimit, watchdog \
          timeout, solver crash) and its degraded retry died too."
  :: List.filter (fun i -> Cmd.Exit.info_code i >= 124) Cmd.Exit.defaults

(* ------------------------------------------------------------------ *)

(* Split a UCQ text on the standalone word UNION; word-boundary checks
   keep identifiers containing the letters intact. *)
let split_union text =
  let n = String.length text in
  let is_word c =
    (c >= 'A' && c <= 'Z') || (c >= 'a' && c <= 'z') || (c >= '0' && c <= '9')
    || c = '_'
  in
  let parts = ref [] and start = ref 0 and i = ref 0 in
  while !i + 5 <= n do
    if
      String.sub text !i 5 = "UNION"
      && (!i = 0 || not (is_word text.[!i - 1]))
      && (!i + 5 = n || not (is_word text.[!i + 5]))
    then begin
      parts := String.sub text !start (!i - !start) :: !parts;
      i := !i + 5;
      start := !i
    end
    else incr i
  done;
  List.rev (String.sub text !start (n - !start) :: !parts)

let contain max_nodes timeout threads no_preprocess certify union metrics_json
    trace_out q1 q2 =
  if union then
    run (fun () ->
        with_telemetry ~command:"contain" ~metrics_json ~trace_out @@ fun () ->
        if certify then
          Core.Error.unsupported
            "--certify is not available with --union (UCQ verdicts have no \
             certificate form yet)";
        let parse_union s = Cq.Ucq.make (List.map parse_query (split_union s)) in
        let u1 = parse_union q1 and u2 = parse_union q2 in
        Format.printf "Q1 <= Q2: %b  (route: ucq-sagiv-yannakakis, %d vs %d \
                       disjunct(s))@."
          (Cq.Ucq.contained u1 u2)
          (Cq.Ucq.disjunct_count u1) (Cq.Ucq.disjunct_count u2);
        0)
  else
  run (fun () ->
      with_telemetry ~command:"contain" ~metrics_json ~trace_out @@ fun () ->
      let q1 = parse_query q1 and q2 = parse_query q2 in
      let budget = budget_of ~max_nodes ~timeout in
      let r =
        Core.Solver.solve_containment ~budget ~threads
          ~preprocess:(not no_preprocess) q1 q2
      in
      (match r.Core.Solver.verdict with
      | Core.Solver.Sat h ->
        Format.printf "Q1 <= Q2: true  (route: %s)@."
          (Core.Solver.route_name r.Core.Solver.route);
        Format.printf "witness: %a@."
          (Format.pp_print_list
             ~pp_sep:(fun ppf () -> Format.fprintf ppf ", ")
             (fun ppf (v, x) -> Format.fprintf ppf "%s->%s" v x))
          (Cq.Containment.witness_names q1 q2 h)
      | Core.Solver.Unsat _ ->
        Format.printf "Q1 <= Q2: false  (route: %s)@."
          (Core.Solver.route_name r.Core.Solver.route)
      | Core.Solver.Unknown reason ->
        Format.printf "Q1 <= Q2: unknown  (budget exhausted: %s)@."
          (Relational.Budget.reason_to_string reason);
        print_attempts r.Core.Solver.attempts);
      if certify then
        certify_against (Core.Solver.containment_instance q1 q2) r;
      verdict_exit r.Core.Solver.verdict)

let union_term =
  Arg.(
    value & flag
    & info [ "union" ]
        ~doc:
          "Treat Q1 and Q2 as unions of conjunctive queries, with disjuncts \
           separated by the standalone word UNION (all disjuncts of a side \
           must share one arity).  Decided by the Sagiv–Yannakakis \
           criterion — each left disjunct must be contained in some right \
           disjunct — via exact per-pair containment tests, so the budget \
           and threads flags do not apply.")

let contain_cmd =
  Cmd.v
    (Cmd.info "contain" ~exits
       ~doc:"Decide (unions of) conjunctive-query containment Q1 <= Q2")
    Term.(
      const contain $ max_nodes_term $ timeout_term $ threads_term
      $ no_preprocess_term $ certify_term $ union_term $ metrics_json_term
      $ trace_out_term $ query_arg ~docv:"Q1" 0 $ query_arg ~docv:"Q2" 1)

let minimize q =
  run (fun () ->
      let q = parse_query q in
      let m = Cq.Containment.minimize q in
      Format.printf "%a@." Cq.Query.pp m;
      Format.printf "joins removed: %d@." (Cq.Query.atom_count q - Cq.Query.atom_count m);
      0)

let minimize_cmd =
  Cmd.v
    (Cmd.info "minimize" ~exits ~doc:"Minimize a conjunctive query (compute its core)")
    Term.(const minimize $ query_arg ~docv:"Q" 0)

let evaluate engine q db =
  run (fun () ->
      let q = parse_query q in
      let db = read_structure db in
      if engine = `Yannakakis && not (Cq.Acyclic.is_acyclic q) then
        Core.Error.unsupported
          "the Yannakakis engine requires an acyclic query body (try --engine auto)";
      let answers =
        match engine with
        | `Hom -> Cq.Containment.evaluate q db
        | `Spj -> Cq.Algebra.evaluate_query q db
        | `Yannakakis -> Cq.Acyclic.evaluate q db
        | `Auto ->
          if Cq.Acyclic.is_acyclic q then Cq.Acyclic.evaluate q db
          else Cq.Containment.evaluate q db
      in
      Format.printf "%d answer(s)@." (List.length answers);
      List.iter (fun t -> Format.printf "  %a@." Relational.Tuple.pp t) answers;
      0)

let evaluate_cmd =
  let engine =
    Arg.(
      value
      & opt
          (enum [ ("auto", `Auto); ("hom", `Hom); ("spj", `Spj); ("yannakakis", `Yannakakis) ])
          `Auto
      & info [ "engine" ] ~docv:"ENGINE"
          ~doc:
            "Evaluation engine: auto (Yannakakis when acyclic), hom              (homomorphism enumeration), spj (compiled algebra plan),              yannakakis.")
  in
  Cmd.v
    (Cmd.info "evaluate" ~exits ~doc:"Evaluate a conjunctive query on a structure")
    Term.(const evaluate $ engine $ query_arg ~docv:"Q" 0 $ structure_arg ~docv:"DB" 1)

let solve max_nodes timeout threads no_preprocess certify metrics_json
    trace_out a b =
  run (fun () ->
      with_telemetry ~command:"solve" ~metrics_json ~trace_out @@ fun () ->
      let a = read_structure a and b = read_structure b in
      let budget = budget_of ~max_nodes ~timeout in
      let r =
        Core.Solver.solve ~budget ~threads ~preprocess:(not no_preprocess) a b
      in
      Format.printf "route: %s@." (Core.Solver.route_name r.Core.Solver.route);
      (match r.Core.Solver.verdict with
      | Core.Solver.Sat h ->
        Format.printf "homomorphism: %a@." Relational.Tuple.pp h
      | Core.Solver.Unsat c ->
        Format.printf "no homomorphism (refutation: %s)@." (Certificate.describe c)
      | Core.Solver.Unknown reason ->
        Format.printf "unknown (budget exhausted: %s)@."
          (Relational.Budget.reason_to_string reason);
        print_attempts r.Core.Solver.attempts);
      if certify then certify_against (a, b) r;
      verdict_exit r.Core.Solver.verdict)

let solve_cmd =
  Cmd.v
    (Cmd.info "solve" ~exits
       ~doc:"Decide the existence of a homomorphism SOURCE -> TARGET (CSP)")
    Term.(
      const solve $ max_nodes_term $ timeout_term $ threads_term
      $ no_preprocess_term $ certify_term $ metrics_json_term $ trace_out_term
      $ structure_arg ~docv:"SOURCE" 0 $ structure_arg ~docv:"TARGET" 1)

let classify b =
  run (fun () ->
      let b = read_structure b in
      if Relational.Structure.size b <> 2 then
        Core.Error.unsupported
          "classification requires a Boolean structure (universe size 2, got %d)"
          (Relational.Structure.size b);
      let classes = Schaefer.Classify.structure_classes b in
      (match classes with
      | [] ->
        Format.printf "Schaefer classes: none@.";
        Format.printf "verdict: CSP(B) is NP-complete (Schaefer's dichotomy)@."
      | cs ->
        Format.printf "Schaefer classes: %s@."
          (String.concat ", " (List.map Schaefer.Classify.class_name cs));
        Format.printf "verdict: CSP(B) is solvable in polynomial time@.");
      List.iter
        (fun (name, r) ->
          Format.printf "  %s: via closure tests {%s}, via polymorphisms {%s}@." name
            (String.concat ", "
               (List.map Schaefer.Classify.class_name (Schaefer.Classify.relation_classes r)))
            (String.concat ", "
               (List.map Schaefer.Classify.class_name
                  (Schaefer.Polymorphism.classes_via_polymorphisms r))))
        (Schaefer.Classify.boolean_relations b);
      0)

let classify_cmd =
  Cmd.v
    (Cmd.info "classify" ~exits
       ~doc:"Classify a Boolean structure in Schaefer's dichotomy")
    Term.(const classify $ structure_arg ~docv:"TARGET" 0)

let treewidth a =
  run (fun () ->
      let a = read_structure a in
      let g =
        Treewidth.Graph.of_edges
          ~size:(Relational.Structure.size a)
          (Relational.Structure.gaifman_edges a)
      in
      Format.printf "universe: %d, facts: %d@." (Relational.Structure.size a)
        (Relational.Structure.total_tuples a);
      Format.printf "acyclic (GYO): %b@." (Treewidth.Hypergraph.is_acyclic a);
      Format.printf "Gaifman treewidth <= %d (min-fill heuristic)@."
        (Treewidth.Elimination.treewidth_upper_bound g);
      if Treewidth.Graph.size g <= 16 then
        Format.printf "Gaifman treewidth = %d (exact)@."
          (Treewidth.Elimination.treewidth_exact g);
      Format.printf "incidence treewidth <= %d@." (Treewidth.Incidence.treewidth_upper a);
      0)

let treewidth_cmd =
  Cmd.v
    (Cmd.info "treewidth" ~exits ~doc:"Report width measures of a structure")
    Term.(const treewidth $ structure_arg ~docv:"SOURCE" 0)

let count max_nodes timeout metrics_json trace_out a b =
  run (fun () ->
      with_telemetry ~command:"count" ~metrics_json ~trace_out @@ fun () ->
      let a = read_structure a and b = read_structure b in
      let budget = budget_of ~max_nodes ~timeout in
      (* Budget exhaustion and count overflow escape to [run]'s guard:
         the diagnostic goes to stderr (stdout is the machine contract)
         with the standard exit codes 4 and 3. *)
      let n = Enumerate.count ~budget a b in
      Format.printf "#hom = %d@." n;
      0)

let count_cmd =
  Cmd.v
    (Cmd.info "count" ~exits
       ~doc:
         "Count homomorphisms SOURCE -> TARGET (component product rule over \
          per-component sum-product counting; overflow-checked)")
    Term.(
      const count $ max_nodes_term $ timeout_term $ metrics_json_term
      $ trace_out_term $ structure_arg ~docv:"SOURCE" 0
      $ structure_arg ~docv:"TARGET" 1)

(* ------------------------------------------------------------------ *)
(* enumerate: stream every homomorphism                                 *)
(* ------------------------------------------------------------------ *)

let enumerate max_nodes timeout limit format metrics_json trace_out a b =
  run (fun () ->
      with_telemetry ~command:"enumerate" ~metrics_json ~trace_out @@ fun () ->
      let a = read_structure a and b = read_structure b in
      (* Cooperative cancellation: SIGINT flips the shared cancel flag
         so an interrupted stream unwinds as a budget-exhausted run
         (partial answers already flushed, exit 4) instead of dying
         mid-frame. *)
      let cancel = ref false in
      let budget =
        match (max_nodes, timeout) with
        | None, None -> Relational.Budget.create ~cancel ()
        | _ -> Relational.Budget.create ?max_nodes ?timeout ~cancel ()
      in
      let previous =
        try Some (Sys.signal Sys.sigint (Sys.Signal_handle (fun _ -> cancel := true)))
        with Invalid_argument _ | Sys_error _ -> None
      in
      Fun.protect
        ~finally:(fun () ->
          Option.iter (fun h -> Sys.set_signal Sys.sigint h) previous)
        (fun () ->
          let plan = Enumerate.plan ~budget a b in
          let route = Enumerate.route_name plan.Enumerate.route in
          (* One JSON value per line, flushed with it. *)
          let print_json j = Format.printf "%s@." (Serve.Json.to_string j) in
          let n = ref 0 in
          let complete =
            Enumerate.iter_limited ?limit
              (fun h ->
                incr n;
                match format with
                | `Text -> Format.printf "%a@." Relational.Tuple.pp h
                | `Jsonl ->
                  print_json Serve.(Json.Obj [ ("hom", Protocol.json_of_mapping h) ]))
              plan.Enumerate.seq
          in
          (match format with
          | `Text -> ()
          | `Jsonl ->
            print_json
              Serve.Json.(
                Obj
                  [
                    ("done", Bool true);
                    ("count", Int !n);
                    ("route", String route);
                    ("complete", Bool complete);
                  ]));
          Format.eprintf "%d answer(s)%s  (route: %s)@." !n
            (if complete then "" else ", truncated by --limit")
            route;
          0))

let enumerate_cmd =
  let limit =
    Arg.(
      value
      & opt (some nonnegative_int) None
      & info [ "limit" ] ~docv:"N"
          ~doc:
            "Stop after streaming $(docv) answers.  One answer more is \
             pulled (not printed) to tell a complete stream from a \
             truncated one.  The stream terminates early without running \
             the remaining search — with a budget, only the work for the \
             answers actually pulled is charged.")
  in
  let format =
    Arg.(
      value
      & opt (enum [ ("text", `Text); ("jsonl", `Jsonl) ]) `Text
      & info [ "format" ] ~docv:"FORMAT"
          ~doc:
            "Output format: text (one tuple per line) or jsonl (one \
             {\"hom\":[...]} object per answer followed by a final \
             {\"done\":true,...} summary frame carrying the count and \
             route).")
  in
  Cmd.v
    (Cmd.info "enumerate" ~exits
       ~doc:"Stream every homomorphism SOURCE -> TARGET"
       ~man:
         [
           `S Manpage.s_description;
           `P
             "Streams all homomorphisms (equivalently, all containment \
              witnesses / query answers) one per line, choosing the \
              cheapest applicable enumeration route: Yannakakis full \
              reduction with backtrack-free join enumeration for acyclic \
              sources (polynomial delay), tree-decomposition dynamic \
              programming with witness reconstruction for bounded \
              treewidth, and budget-metered backtracking in general.  \
              Answers stream in constant space per answer, so answer sets \
              larger than memory are fine.  Preprocess shrinking is \
              bypassed: enumeration is not invariant under core \
              retraction.";
         ])
    Term.(
      const enumerate $ max_nodes_term $ timeout_term $ limit
      $ format $ metrics_json_term $ trace_out_term
      $ structure_arg ~docv:"SOURCE" 0 $ structure_arg ~docv:"TARGET" 1)

let game k show_stats a b =
  run (fun () ->
      let a = read_structure a and b = read_structure b in
      let { Pebble.Game.family; stats; _ } =
        match Pebble.Game.run ~k a b with
        | Some outcome -> outcome
        | None ->
          Core.Error.unsupported
            "the %d-pebble game on %d x %d elements exceeds the encoding capacity \
             of %d slots"
            k (Relational.Structure.size a) (Relational.Structure.size b)
            Pebble.Game.Encoding.capacity
      in
      let wins = Pebble.Game.mem family [] in
      Format.printf "existential %d-pebble game: %s wins@." k
        (if wins then "the Duplicator" else "the Spoiler");
      Format.printf "partial homomorphisms: %d generated, %d pruned@."
        stats.initial_configs stats.removed;
      if show_stats then
        Format.printf
          "engine counters: %d configs ranked, %d supports built, %d deaths \
           propagated@."
          stats.configs_ranked stats.supports_built stats.deaths_propagated;
      if not wins then Format.printf "consequence: no homomorphism SOURCE -> TARGET@."
      else
        Format.printf
          "consequence: inconclusive (a homomorphism may or may not exist)@.";
      0)

let game_cmd =
  let k =
    Arg.(value & opt int 2 & info [ "k"; "pebbles" ] ~docv:"K" ~doc:"Number of pebbles.")
  in
  let stats =
    Arg.(
      value & flag
      & info [ "stats" ]
          ~doc:
            "Also print the engine's internal counters: configurations \
             ranked, support-counter increments, and deaths propagated through \
             the worklist.")
  in
  Cmd.v
    (Cmd.info "game" ~exits
       ~doc:"Play the existential k-pebble game (strong k-consistency)")
    Term.(
      const game $ k $ stats $ structure_arg ~docv:"SOURCE" 0
      $ structure_arg ~docv:"TARGET" 1)

let fo_check formula_text a =
  run (fun () ->
      let a = read_structure a in
      let f =
        match Folog.Fo_parser.parse formula_text with
        | f -> f
        | exception Folog.Fo_parser.Parse_error msg ->
          Core.Error.bad_input "bad formula: %s" msg
      in
      Format.printf "formula: %a  (width %d%s)@." Folog.Formula.pp f
        (Folog.Formula.width f)
        (if Folog.Formula.is_existential_positive f then ", existential positive" else "");
      (if Folog.Formula.is_sentence f then
         Format.printf "holds: %b@." (Folog.Fo_eval.holds a f)
       else begin
         let table = Folog.Fo_eval.eval a f in
         Format.printf "free variables: %s@."
           (String.concat ", " (Array.to_list table.Folog.Fo_eval.vars));
         Format.printf "%d satisfying assignment(s)@."
           (List.length table.Folog.Fo_eval.rows);
         List.iter
           (fun row -> Format.printf "  %a@." Relational.Tuple.pp row)
           table.Folog.Fo_eval.rows
       end);
      0)

let check_cmd =
  let f = Arg.(required & pos 0 (some string) None & info [] ~docv:"FORMULA") in
  Cmd.v
    (Cmd.info "check" ~exits
       ~doc:"Evaluate a first-order formula on a structure (bounded-variable model checking)")
    Term.(const fo_check $ f $ structure_arg ~docv:"STRUCTURE" 1)

let selfcheck count seed max_nodes threads metrics_json trace_out =
  run (fun () ->
      with_telemetry ~command:"selfcheck" ~metrics_json ~trace_out @@ fun () ->
      let report = Testkit.Selfcheck.run ~max_nodes ~count ~seed ~threads () in
      Format.printf
        "%d instance(s): %d decided by at least one route, %d skipped@."
        report.Testkit.Selfcheck.instances report.Testkit.Selfcheck.checked
        report.Testkit.Selfcheck.skipped;
      match report.Testkit.Selfcheck.issues with
      | [] ->
        Format.printf "no disagreements, no rejected certificates@.";
        0
      | issues ->
        List.iter
          (fun { Testkit.Selfcheck.seed; what } ->
            Format.printf "  seed %d: %s@." seed what)
          issues;
        Core.Error.internal "self-check failed on %d of %d instance(s)"
          (List.length issues) report.Testkit.Selfcheck.instances)

let selfcheck_cmd =
  let count =
    Arg.(
      value & opt nonnegative_int 500
      & info [ "count" ] ~docv:"N" ~doc:"Number of random instances to check.")
  in
  let seed =
    Arg.(
      value & opt int 0
      & info [ "seed" ] ~docv:"SEED" ~doc:"First seed; instance $(i)i$(i) uses seed SEED+$(i)i$(i).")
  in
  let max_nodes =
    Arg.(
      value & opt positive_int 50_000
      & info [ "max-nodes" ] ~docv:"N"
          ~doc:
            "Per-route budget on each instance; an exhausted route is \
             skipped, never reported as a disagreement.")
  in
  Cmd.v
    (Cmd.info "selfcheck" ~exits
       ~doc:"Differential oracle: force every route on random instances"
       ~man:
         [
           `S Manpage.s_description;
           `P
             "Generates deterministic random instances (Boolean Schaefer \
              targets, graph targets, acyclic and bounded-treewidth sources, \
              arbitrary small structures, and containment pairs), forces \
              every applicable solving route to answer each one \
              independently, and validates every definite verdict's \
              certificate with the trusted checker.  Any disagreement \
              between two routes, or any certificate the checker rejects, \
              is a bug in this code base: the command reports each offending \
              seed and exits 5.";
         ])
    Term.(
      const selfcheck $ count $ seed $ max_nodes $ threads_term
      $ metrics_json_term $ trace_out_term)

(* ------------------------------------------------------------------ *)
(* serve: the long-lived solving daemon                                 *)
(* ------------------------------------------------------------------ *)

let serve socket stdio max_inflight max_queue cache_size ceiling_nodes
    ceiling_timeout default_nodes default_timeout max_frame_bytes sandbox
    sandbox_mem sandbox_cpu sandbox_wall spool threads warm no_preprocess
    metrics_json trace_out =
  run (fun () ->
      with_telemetry ~command:"serve" ~metrics_json ~trace_out @@ fun () ->
      let mode =
        match (stdio, socket) with
        | true, None -> Serve.Server.Stdio
        | false, Some path -> Serve.Server.Unix_socket path
        | true, Some _ ->
          Core.Error.bad_input "--stdio and --socket are mutually exclusive"
        | false, None ->
          Core.Error.bad_input "serve needs --socket PATH or --stdio"
      in
      (* Sandboxing defaults on for the socket daemon (long-lived, worth a
         fork per solve) and off for stdio sessions (often a test harness
         inspecting in-process state); either can be forced. *)
      let sandbox =
        match sandbox with
        | Some choice -> choice
        | None -> ( match mode with Serve.Server.Stdio -> false | _ -> true)
      in
      (match mode with
      | Serve.Server.Unix_socket path ->
        Format.eprintf
          "cqc serve: listening on %s (%s; SIGTERM drains and exits)@." path
          (if sandbox then "sandboxed workers" else "in-process solves")
      | Serve.Server.Stdio -> ());
      Serve.Server.run
        {
          Serve.Server.mode;
          max_inflight;
          max_queue;
          cache_capacity = cache_size;
          opt_ceiling_nodes = ceiling_nodes;
          opt_ceiling_timeout = ceiling_timeout;
          opt_default_nodes = default_nodes;
          opt_default_timeout = default_timeout;
          opt_max_frame_bytes = max_frame_bytes;
          opt_sandbox = sandbox;
          opt_sandbox_mem_bytes =
            (match sandbox_mem with 0 -> None | mb -> Some (mb * 1024 * 1024));
          opt_sandbox_cpu_seconds =
            (match sandbox_cpu with 0 -> None | s -> Some s);
          opt_sandbox_wall_seconds = sandbox_wall;
          opt_spool_dir = spool;
          opt_threads = threads;
          opt_warm_manifest = warm;
          opt_preprocess = not no_preprocess;
        })

let serve_cmd =
  let socket =
    Arg.(
      value
      & opt (some string) None
      & info [ "socket" ] ~docv:"PATH"
          ~doc:"Listen on a Unix-domain socket at $(docv), one JSONL frame per request.")
  in
  let stdio =
    Arg.(
      value & flag
      & info [ "stdio" ]
          ~doc:
            "Serve a single session over stdin/stdout instead of a socket \
             (for harnesses and tests); ends at end of input.")
  in
  let max_inflight =
    Arg.(
      value & opt positive_int 4
      & info [ "max-inflight" ] ~docv:"N"
          ~doc:"Solve at most $(docv) requests concurrently (admission control).")
  in
  let max_queue =
    Arg.(
      value & opt nonnegative_int 16
      & info [ "max-queue" ] ~docv:"N"
          ~doc:
            "Park at most $(docv) requests waiting for a solve slot \
             (backpressure); beyond that, requests are shed with a typed \
             'shed' response.")
  in
  let cache_size =
    Arg.(
      value & opt positive_int 64
      & info [ "cache-size" ] ~docv:"N"
          ~doc:
            "Keep the analyses of at most $(docv) distinct templates (LRU \
             eviction).")
  in
  let ceiling_nodes =
    Arg.(
      value
      & opt (some positive_int) None
      & info [ "max-nodes" ] ~docv:"N"
          ~doc:
            "Server-wide ceiling on any request's node budget: requests \
             asking for more (or for none) are clamped to $(docv).")
  in
  let ceiling_timeout =
    Arg.(
      value
      & opt (some positive_float) None
      & info [ "timeout" ] ~docv:"SECONDS"
          ~doc:"Server-wide ceiling on any request's deadline, in seconds.")
  in
  let default_nodes =
    Arg.(
      value
      & opt (some positive_int) None
      & info [ "default-max-nodes" ] ~docv:"N"
          ~doc:"Node budget for requests that name none.")
  in
  let default_timeout =
    Arg.(
      value
      & opt (some positive_float) None
      & info [ "default-timeout" ] ~docv:"SECONDS"
          ~doc:"Deadline for requests that name none, in seconds.")
  in
  let max_frame_bytes =
    Arg.(
      value
      & opt positive_int (1 lsl 20)
      & info [ "max-frame-bytes" ] ~docv:"BYTES"
          ~doc:
            "Reject request frames longer than $(docv) bytes with a typed \
             error instead of buffering them.")
  in
  let sandbox =
    Arg.(
      value
      & vflag None
          [
            ( Some true,
              info [ "sandbox" ]
                ~doc:
                  "Run every solve in a forked worker process under rlimits \
                   and a wall-clock watchdog (the default with --socket): a \
                   worker death becomes a typed worker_crash response (code \
                   6) after one degraded retry, never a daemon death." );
            ( Some false,
              info [ "no-sandbox" ]
                ~doc:
                  "Solve in-process (the default with --stdio); cheaper per \
                   request, but a solver crash is a daemon crash." );
          ])
  in
  let sandbox_mem =
    Arg.(
      value & opt nonnegative_int 1024
      & info [ "sandbox-mem" ] ~docv:"MB"
          ~doc:
            "Worker address-space ceiling (RLIMIT_AS) in mebibytes; 0 \
             inherits the parent's limit.")
  in
  let sandbox_cpu =
    Arg.(
      value & opt nonnegative_int 20
      & info [ "sandbox-cpu" ] ~docv:"SECONDS"
          ~doc:
            "Worker CPU-time ceiling (RLIMIT_CPU) in whole seconds; 0 \
             inherits the parent's limit.")
  in
  let sandbox_wall =
    Arg.(
      value & opt positive_float 30.
      & info [ "sandbox-wall" ] ~docv:"SECONDS"
          ~doc:
            "Parent-side wall-clock watchdog: a worker silent for $(docv) \
             seconds is killed and classified as a watchdog timeout.")
  in
  let spool =
    Arg.(
      value
      & opt (some string) None
      & info [ "spool" ] ~docv:"DIR"
          ~doc:
            "Spool directory for crash-dump artifacts: when a worker dies \
             twice on a request, a self-contained reproducer (replayable \
             with 'cqc triage') is written here.")
  in
  let warm =
    Arg.(
      value
      & opt (some string) None
      & info [ "warm" ] ~docv:"MANIFEST"
          ~doc:
            "Pre-analyse templates into the cache at startup: $(docv) lists \
             structure files, one path per line ('#' comments and blank \
             lines skipped, relative paths resolved against the manifest's \
             directory).  The first request against a warmed template is \
             already a cache hit.  An unreadable or unparsable entry fails \
             startup loudly.")
  in
  Cmd.v
    (Cmd.info "serve" ~exits
       ~doc:"Run the long-lived JSONL solving daemon (crash-proof request loop)"
       ~man:
         [
           `S Manpage.s_description;
           `P
             "Serves solve/contain/ping/stats requests, one JSON object per \
              line, with full fault isolation: any per-request failure — \
              malformed frame, bad structure text, budget exhaustion, \
              certificate rejection, injected fault — becomes a typed error \
              response mirroring the documented exit codes, and never kills \
              the loop.  Templates (the target side B) are fingerprinted and \
              their analyses cached across requests with LRU eviction and \
              poisoning on build failure.  SIGINT/SIGTERM drain in-flight \
              work through budget cancellation and exit 0.";
           `P
             "With sandboxed workers (the --socket default), each solve runs \
              in a forked child capped by RLIMIT_AS/RLIMIT_CPU and a \
              parent-side watchdog; a child death of any kind — OOM kill, \
              rlimit, timeout, segfault, half-written result — is classified, \
              retried once with a degraded budget, and finally answered as a \
              typed worker_crash response (code 6), optionally spooling a \
              crash-dump reproducer for 'cqc triage'.";
           `P
             "A request frame that is a JSON array of request objects is a \
              batch: it is answered by the array of the members' responses \
              on one line, admission is paid once for the whole batch, and \
              members querying the same template share one cache resolution \
              and (when sandboxed) one forked worker.  Batches are limited \
              to 64 members.";
           `P
             "--threads races the portfolio routes of each in-process solve \
              across domains (see 'cqc solve --threads'); forked sandbox \
              workers always solve sequentially, so the flag applies to \
              --no-sandbox daemons and --stdio sessions.";
           `P
             "Set CQCSP_FAULT=site:seed:rate (sites: parse, admit, cache, \
              solve, respond, worker, all) to arm deterministic fault \
              injection for chaos testing; the worker site SIGKILLs freshly \
              forked workers.";
         ])
    Term.(
      const serve $ socket $ stdio $ max_inflight $ max_queue $ cache_size
      $ ceiling_nodes $ ceiling_timeout $ default_nodes $ default_timeout
      $ max_frame_bytes $ sandbox $ sandbox_mem $ sandbox_cpu $ sandbox_wall
      $ spool $ threads_term $ warm $ no_preprocess_term $ metrics_json_term
      $ trace_out_term)

(* request: a thin JSONL client for the daemon, used by the smoke tests
   and handy for ops one-liners. *)
let request socket retry frames =
  run (fun () ->
      (* Frames read from stdin must be buffered once up front: a retried
         attempt replays them all, and stdin cannot be rewound. *)
      let frames =
        match frames with
        | [] -> List.rev (In_channel.fold_lines (fun acc l -> l :: acc) [] In_channel.stdin)
        | frames -> frames
      in
      let attempt printed =
        let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
        Fun.protect
          ~finally:(fun () -> try Unix.close fd with _ -> ())
          (fun () ->
            Unix.connect fd (Unix.ADDR_UNIX socket);
            let send line =
              let line = line ^ "\n" in
              let rec go off len =
                if len > 0 then begin
                  let n = Unix.write_substring fd line off len in
                  go (off + n) (len - n)
                end
              in
              go 0 (String.length line)
            in
            List.iter send frames;
            Unix.shutdown fd Unix.SHUTDOWN_SEND;
            let chunk = Bytes.create 8192 in
            let rec copy () =
              match Unix.read fd chunk 0 (Bytes.length chunk) with
              | 0 -> ()
              | n ->
                printed := true;
                print_string (Bytes.sub_string chunk 0 n);
                copy ()
              | exception Unix.Unix_error (Unix.EINTR, _, _) -> copy ()
            in
            copy ();
            flush stdout;
            0)
      in
      (* Exponential backoff with jitter against a daemon that is still
         binding its socket (refused / not yet created) or restarting
         (reset).  Never retry after response bytes reached stdout — a
         replay would duplicate them. *)
      let rng = Random.State.make_self_init () in
      let rec go tries_left delay =
        let printed = ref false in
        match attempt printed with
        | code -> code
        | exception
            Unix.Unix_error
              ((Unix.ECONNREFUSED | Unix.ENOENT | Unix.ECONNRESET), _, _)
          when tries_left > 0 && not !printed ->
          Unix.sleepf (delay +. Random.State.float rng (delay /. 2.));
          go (tries_left - 1) (Float.min 2. (2. *. delay))
      in
      go retry 0.05)

let request_cmd =
  let socket =
    Arg.(
      required
      & opt (some string) None
      & info [ "socket" ] ~docv:"PATH" ~doc:"The daemon's Unix-domain socket.")
  in
  let retry =
    Arg.(
      value & opt nonnegative_int 0
      & info [ "retry" ] ~docv:"N"
          ~doc:
            "Retry a refused, missing or reset connection up to $(docv) \
             times with exponential backoff and jitter (useful while the \
             daemon is still starting); no retry once any response bytes \
             have arrived.")
  in
  let frames =
    Arg.(
      value & pos_all string []
      & info [] ~docv:"FRAME"
          ~doc:
            "Request frames (one JSON object each); read from stdin when \
             none are given.")
  in
  Cmd.v
    (Cmd.info "request" ~exits
       ~doc:"Send JSONL requests to a running cqc serve daemon")
    Term.(const request $ socket $ retry $ frames)

(* ------------------------------------------------------------------ *)
(* triage: replay and minimize a crash dump                             *)
(* ------------------------------------------------------------------ *)

let parse_structure_text ~what text =
  match Relational.Structure_text.parse text with
  | s -> s
  | exception Relational.Structure_text.Parse_error (pos, msg) ->
    Core.Error.bad_input "dump %s structure at %s: %s" what
      (Relational.Source_position.to_string pos)
      msg

(* Replace a field of the original request object, preserving everything
   else (id, budgets, certify) so the minimized line replays under the
   same conditions. *)
let set_field key v = function
  | Serve.Json.Obj fields ->
    Serve.Json.Obj
      (List.map (fun (k, x) -> if k = key then (k, v) else (k, x)) fields)
  | j -> j

let pct_reduced ~before ~after =
  if before <= 0 then 0.
  else 100. *. float_of_int (before - after) /. float_of_int before

let triage dump_path out fuel =
  run (fun () ->
      let d =
        match Serve.Dump.read dump_path with
        | Ok d -> d
        | Error msg -> Core.Error.bad_input "%s" msg
      in
      (* Re-arm the synthetic-crash hook exactly as at crash time; the
         chaos spec (CQCSP_FAULT) is deliberately NOT re-armed — a random
         worker kill is the environment's fault, not the request's, and
         re-arming it would make every replay signature a coin flip. *)
      (match d.Serve.Dump.abort_spec with
      | Some spec -> Unix.putenv "CQCSP_TEST_ABORT" spec
      | None -> ( try Unix.putenv "CQCSP_TEST_ABORT" "" with _ -> ()));
      let frame =
        match Serve.Json.parse d.Serve.Dump.line with
        | j -> j
        | exception Serve.Json.Parse_error msg ->
          Core.Error.bad_input "dump request line: %s" msg
      in
      let limits =
        {
          Serve.Worker.mem_bytes = d.Serve.Dump.mem_bytes;
          cpu_seconds = d.Serve.Dump.cpu_seconds;
          wall_seconds = d.Serve.Dump.wall_seconds;
        }
      in
      let target = Core.Error.crash_class_name d.Serve.Dump.crash in
      Format.eprintf "replaying %s (crash signature: %s, wall %.1fs)@."
        dump_path target d.Serve.Dump.wall_seconds;
      let fuel = ref fuel in
      (* One sandboxed replay; its signature is the crash class, or None
         when the request completes (any typed non-crash response counts
         as completing).  Fuel exhaustion reads as "no signature", which
         freezes the minimizer at its current best — conservative. *)
      let signature compute =
        if !fuel <= 0 then None
        else begin
          decr fuel;
          match Serve.Worker.execute ~limits ~id:Serve.Json.Null compute with
          | Error (crash, _) -> Some (Core.Error.crash_class_name crash)
          | Ok j -> (
            match Serve.Json.member "error" j with
            | Some (Serve.Json.String "worker_crash") ->
              Serve.Json.string_member "crash" j
            | _ -> None)
        end
      in
      (* Replay request [j] once.  When it crashes with the dump's
         signature, minimize it: the minimized request and the lines
         reporting the reduction. *)
      let minimized j =
        let req =
          match Serve.Protocol.request_of_json j with
          | Ok r -> r
          | Error msg -> Core.Error.bad_input "dump request line: %s" msg
        in
        let budget () =
          Relational.Budget.create ?max_nodes:req.Serve.Protocol.max_nodes
            ?timeout:req.Serve.Protocol.timeout ()
        in
        let get field =
          match Serve.Json.string_member field j with
          | Some v -> v
          | None -> Core.Error.bad_input "dump request is missing %S" field
        in
        match req.Serve.Protocol.op with
        | Serve.Protocol.Ping | Serve.Protocol.Stats ->
          Core.Error.bad_input "dump request op %S carries nothing to minimize"
            (Serve.Protocol.op_name req.Serve.Protocol.op)
        | (Serve.Protocol.Solve | Serve.Protocol.Enumerate) as op ->
          let a = parse_structure_text ~what:"source" (get "source") in
          let b = parse_structure_text ~what:"target" (get "target") in
          let compute a b () =
            Serve.Worker.test_abort_hook a;
            (* Replay what the worker was doing when it died: a dumped
               enumerate drains the stream, a dumped solve solves. *)
            (match op with
            | Serve.Protocol.Enumerate ->
              Seq.iter ignore (Enumerate.stream ~budget:(budget ()) a b)
            | _ -> ignore (Core.Solver.solve ~budget:(budget ()) a b));
            Serve.Json.Null
          in
          let crashes a b = signature (compute a b) = Some target in
          if not (crashes a b) then None
          else
            let a' = Shrink.structure ~keeps:(fun a' -> crashes a' b) a in
            let b' = Shrink.structure ~keeps:(fun b' -> crashes a' b') b in
            let tuples a b =
              Relational.Structure.total_tuples a
              + Relational.Structure.total_tuples b
            in
            let t0 = tuples a b and t1 = tuples a' b' in
            let size = Relational.Structure.size in
            Some
              ( set_field "target"
                  (Serve.Json.String (Relational.Structure_text.print b'))
                  (set_field "source"
                     (Serve.Json.String (Relational.Structure_text.print a'))
                     j),
                [
                  Printf.sprintf "tuples: %d -> %d" t0 t1;
                  Printf.sprintf "universe: %d+%d -> %d+%d" (size a) (size b)
                    (size a') (size b');
                  Printf.sprintf "reduction: %.0f%%"
                    (pct_reduced ~before:t0 ~after:t1);
                ] )
        | Serve.Protocol.Contain ->
          let q1 = parse_query (get "q1") in
          let q2 = parse_query (get "q2") in
          let compute q1 q2 () =
            let a, b = Core.Solver.containment_instance q1 q2 in
            Serve.Worker.test_abort_hook a;
            ignore (Core.Solver.solve ~budget:(budget ()) a b);
            Serve.Json.Null
          in
          let crashes q1 q2 =
            match signature (compute q1 q2) with
            | s -> s = Some target
            | exception Invalid_argument _ -> false
          in
          if not (crashes q1 q2) then None
          else
            let q1' = Shrink.query ~keeps:(fun q -> crashes q q2) q1 in
            let q2' = Shrink.query ~keeps:(fun q -> crashes q1' q) q2 in
            let atoms q1 q2 = Cq.Query.atom_count q1 + Cq.Query.atom_count q2 in
            let a0 = atoms q1 q2 and a1 = atoms q1' q2' in
            Some
              ( set_field "q2"
                  (Serve.Json.String (Cq.Query.to_string q2'))
                  (set_field "q1" (Serve.Json.String (Cq.Query.to_string q1')) j),
                [
                  Printf.sprintf "atoms: %d -> %d" a0 a1;
                  Printf.sprintf "reduction: %.0f%%"
                    (pct_reduced ~before:a0 ~after:a1);
                ] )
      in
      (* A batch dump holds the whole array frame: replay its solve and
         contain members one at a time and minimize the first one that
         reproduces the crash on its own, as a single-request dump.  A
         member the daemon rejected as bad input never reached the
         worker, so it is skipped. *)
      let minimum =
        match frame with
        | Serve.Json.List members ->
          List.find_map
            (fun m ->
              match Serve.Protocol.request_of_json m with
              | Ok { Serve.Protocol.op = Serve.Protocol.Solve | Serve.Protocol.Contain; _ }
                -> (
                try minimized m
                with Core.Error.Error (Core.Error.Bad_input _) -> None)
              | _ -> None)
            members
        | j -> minimized j
      in
      match minimum with
      | None ->
        Core.Error.unsupported
          "the dump's %s signature did not reproduce in replay (fixed bug, \
           different machine, or missing CQCSP_TEST_ABORT state)"
          target
      | Some (request, report) ->
        let min_dump = { d with Serve.Dump.line = Serve.Json.to_string request } in
        Out_channel.with_open_text out (fun oc ->
            output_string oc (Serve.Json.to_string (Serve.Dump.to_json min_dump));
            output_char oc '\n');
        Format.printf "signature: %s (reproduced)@." target;
        List.iter (Format.printf "%s@.") report;
        Format.printf "wrote %s@." out;
        0)

let triage_cmd =
  let dump = Arg.(required & pos 0 (some string) None & info [] ~docv:"DUMP") in
  let out =
    Arg.(
      value
      & opt (some string) None
      & info [ "out" ] ~docv:"FILE"
          ~doc:"Where to write the minimized dump (default: DUMP.min.json).")
  in
  let fuel =
    Arg.(
      value & opt positive_int 400
      & info [ "fuel" ] ~docv:"N"
          ~doc:
            "Cap on sandboxed replays during minimization; when spent, the \
             smallest reproducer found so far is kept.")
  in
  let with_default_out dump out fuel =
    triage dump (match out with Some o -> o | None -> dump ^ ".min.json") fuel
  in
  Cmd.v
    (Cmd.info "triage" ~exits
       ~doc:"Replay a serve crash dump and minimize its reproducer"
       ~man:
         [
           `S Manpage.s_description;
           `P
             "Reads a crash-dump artifact spooled by 'cqc serve --spool', \
              re-runs the offending request in a fresh sandboxed worker \
              under the dump's recorded limits, and checks that the same \
              crash class reproduces.  It then delta-debugs the request — \
              dropping tuples and merging universe elements of solve \
              structures, dropping atoms and collapsing variables of \
              containment queries — keeping only changes that preserve the \
              crash signature, and writes the minimized dump next to the \
              original.";
           `P
             "The recorded CQCSP_TEST_ABORT hook (test-synthesized crashes) \
              is re-armed for replay; the recorded CQCSP_FAULT chaos spec is \
              not, because random worker kills are environmental, not a \
              property of the request.";
         ])
    Term.(const with_default_out $ dump $ out $ fuel)

let main =
  let doc = "conjunctive-query containment and constraint satisfaction" in
  let info_ =
    Cmd.info "cqc" ~doc
      ~man:
        [
          `S Manpage.s_description;
          `P
            "Tools from the Kolaitis-Vardi reproduction: query containment, \
             minimization and evaluation; CSP solving through the unified \
             tractable-route dispatcher; Schaefer classification; width measures.";
          `S "STRUCTURE FILES";
          `P
            "Structures are text files: a 'size N' line, optional 'rel NAME ARITY' \
             declarations, then one 'NAME e1 e2 ...' line per fact. '#' starts a \
             comment. Use '-' for stdin.";
          `S "EXIT STATUS";
          `P
            "0 on success; 2 on malformed input (bad query/structure text, \
             violated precondition); 3 when the input is outside the requested \
             algorithm's capabilities; 4 when a budget was exhausted and the \
             answer is unknown; 5 on an internal error; 6 when a sandboxed \
             worker died and its retry died too.";
        ]
  in
  Cmd.group info_
    [ contain_cmd; minimize_cmd; evaluate_cmd; solve_cmd; classify_cmd; treewidth_cmd;
      count_cmd; enumerate_cmd; game_cmd; check_cmd; selfcheck_cmd; serve_cmd;
      request_cmd; triage_cmd ]

let () = exit (Cmd.eval' main)
