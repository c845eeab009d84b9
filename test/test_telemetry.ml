(* Telemetry suite: sink plumbing, span nesting and counter attribution,
   JSON rendering, exhaustion-safe flushing, and the observer-effect
   property — the solver's verdicts, certificates and attempt reports are
   bit-identical whether telemetry is disabled, memory-sinked or
   JSONL-sinked. *)

open Relational
open Helpers
module Solver = Core.Solver

let check = Alcotest.(check bool)

let check_int = Alcotest.(check int)

let check_str = Alcotest.(check string)

(* Run [f] with [sink] installed on a clean slate, then restore the
   disabled default even when [f] raises. *)
let with_sink sink f =
  Telemetry.reset ();
  Telemetry.set_sink sink;
  Fun.protect
    ~finally:(fun () ->
      Telemetry.set_sink None;
      Telemetry.reset ())
    f

let with_memory f =
  let sink, drain = Telemetry.Sink.memory () in
  with_sink (Some sink) (fun () -> f drain)

let contains ~needle haystack =
  let n = String.length needle and h = String.length haystack in
  let rec go i = i + n <= h && (String.sub haystack i n = needle || go (i + 1)) in
  go 0

let span_named name = function
  | Telemetry.Span { name = n; _ } -> n = name
  | Telemetry.Counter _ | Telemetry.Timer _ -> false

(* ------------------------------------------------------------------ *)
(* Disabled by default                                                  *)
(* ------------------------------------------------------------------ *)

let disabled_tests =
  [
    Alcotest.test_case "no sink means no work" `Quick (fun () ->
        Telemetry.set_sink None;
        Telemetry.reset ();
        check "disabled" false (Telemetry.enabled ());
        Telemetry.count "x.y" 5;
        check_int "count is a no-op" 0 (Telemetry.counter_total "x.y");
        check "no totals" true (Telemetry.counter_totals () = []);
        check "begin_span yields nothing" true (Telemetry.begin_span "s" = None);
        check "end_span yields nothing" true (Telemetry.end_span None = []);
        check_int "time applies f" 42 (Telemetry.time "t" (fun () -> 42));
        check "no timers" true (Telemetry.timer_totals () = []);
        Telemetry.flush ());
    Alcotest.test_case "set_sink enables, None disables again" `Quick (fun () ->
        with_memory (fun _ -> check "enabled" true (Telemetry.enabled ()));
        check "disabled after" false (Telemetry.enabled ()));
  ]

(* ------------------------------------------------------------------ *)
(* Counters, timers, spans                                              *)
(* ------------------------------------------------------------------ *)

let counter_tests =
  [
    Alcotest.test_case "counters accumulate and sort" `Quick (fun () ->
        with_memory (fun _ ->
            Telemetry.count "b.two" 2;
            Telemetry.count "a.one" 1;
            Telemetry.count "b.two" 3;
            check_int "total" 5 (Telemetry.counter_total "b.two");
            check "sorted totals" true
              (Telemetry.counter_totals () = [ ("a.one", 1); ("b.two", 5) ])));
    Alcotest.test_case "timers accumulate duration and invocations" `Quick
      (fun () ->
        with_memory (fun _ ->
            for _ = 1 to 3 do
              Telemetry.time "t.x" (fun () -> ignore (Sys.opaque_identity 1))
            done;
            match Telemetry.timer_totals () with
            | [ ("t.x", (seconds, count)) ] ->
              check_int "count" 3 count;
              check "nonnegative" true (seconds >= 0.0)
            | other -> Alcotest.failf "unexpected timers (%d)" (List.length other)));
    Alcotest.test_case "spans attribute counters to the innermost, roll up"
      `Quick (fun () ->
        with_memory (fun drain ->
            let outer = Telemetry.begin_span "outer" in
            Telemetry.count "c.o" 1;
            let inner = Telemetry.begin_span "inner" in
            Telemetry.count "c.i" 2;
            let inner_deltas = Telemetry.end_span inner in
            check "inner saw only its own" true (inner_deltas = [ ("c.i", 2) ]);
            let outer_deltas =
              Telemetry.end_span ~fields:[ ("k", Wire.Json.Int 7) ] outer
            in
            check "outer rolled the inner up" true
              (outer_deltas = [ ("c.i", 2); ("c.o", 1) ]);
            match drain () with
            | [ Telemetry.Span { name = iname; _ };
                Telemetry.Span { name = oname; elapsed_s; fields; counters } ] ->
              check_str "inner first" "inner" iname;
              check_str "then outer" "outer" oname;
              check "elapsed nonnegative" true (elapsed_s >= 0.0);
              check "fields kept" true (fields = [ ("k", Wire.Json.Int 7) ]);
              check "record carries the deltas" true
                (counters = [ ("c.i", 2); ("c.o", 1) ])
            | rs -> Alcotest.failf "expected 2 spans, got %d records" (List.length rs)));
    Alcotest.test_case "ending an outer span discards unclosed inner spans"
      `Quick (fun () ->
        with_memory (fun drain ->
            let outer = Telemetry.begin_span "outer" in
            let inner = Telemetry.begin_span "inner" in
            ignore (Telemetry.end_span outer);
            (* The inner span was unwound: closing it later is a no-op. *)
            check "stale close" true (Telemetry.end_span inner = []);
            check_int "only the outer emitted" 1
              (List.length (List.filter (span_named "outer") (drain ())))));
    Alcotest.test_case "with_span emits even on Budget.Exhausted escapes"
      `Quick (fun () ->
        with_memory (fun drain ->
            (try
               Telemetry.with_span "doomed" (fun () ->
                   Telemetry.count "work.done" 3;
                   raise (Budget.Exhausted Budget.Node_limit))
             with Budget.Exhausted Budget.Node_limit -> ());
            match drain () with
            | [ Telemetry.Span { name; counters; _ } ] ->
              check_str "span name" "doomed" name;
              check "partial work attributed" true
                (counters = [ ("work.done", 3) ])
            | rs -> Alcotest.failf "expected 1 span, got %d records" (List.length rs)));
    Alcotest.test_case "flush emits counter and timer totals, then reset clears"
      `Quick (fun () ->
        with_memory (fun drain ->
            Telemetry.count "c.a" 4;
            Telemetry.time "t.b" ignore;
            Telemetry.flush ();
            let records = drain () in
            check "counter total emitted" true
              (List.exists
                 (function
                   | Telemetry.Counter { name = "c.a"; total = 4 } -> true
                   | _ -> false)
                 records);
            check "timer total emitted" true
              (List.exists
                 (function
                   | Telemetry.Timer { name = "t.b"; count = 1; _ } -> true
                   | _ -> false)
                 records);
            Telemetry.reset ();
            check "reset clears totals" true (Telemetry.counter_totals () = []);
            check "sink survives reset" true (Telemetry.enabled ())));
  ]

(* ------------------------------------------------------------------ *)
(* JSON rendering and sinks                                             *)
(* ------------------------------------------------------------------ *)

let json_tests =
  [
    Alcotest.test_case "span record renders as one JSON object" `Quick
      (fun () ->
        let s =
          Wire.Json.to_string @@ Telemetry.json_of_record
            (Telemetry.Span
               {
                 name = "solver.attempt";
                 elapsed_s = 0.25;
                 fields =
                   [
                     ("route", Wire.Json.String "backtracking");
                     ("ok", Wire.Json.Bool true);
                     ("nodes", Wire.Json.Int 12);
                   ];
                 counters = [ ("ac.kills", 3) ];
               })
        in
        check "type" true (contains ~needle:"\"type\":\"span\"" s);
        check "name" true (contains ~needle:"\"name\":\"solver.attempt\"" s);
        check "field string" true (contains ~needle:"\"route\":\"backtracking\"" s);
        check "field bool" true (contains ~needle:"\"ok\":true" s);
        check "field int" true (contains ~needle:"\"nodes\":12" s);
        check "counters" true (contains ~needle:"\"ac.kills\":3" s);
        check "one line" true (not (String.contains s '\n')));
    Alcotest.test_case "strings are escaped, non-finite floats become null"
      `Quick (fun () ->
        let render fields =
          Wire.Json.to_string @@ Telemetry.json_of_record
            (Telemetry.Span { name = "s"; elapsed_s = 0.0; fields; counters = [] })
        in
        let s = render [ ("msg", Wire.Json.String "a\"b\\c\nd\tee\x01f") ] in
        check "quote" true (contains ~needle:"a\\\"b" s);
        check "backslash" true (contains ~needle:"b\\\\c" s);
        check "newline" true (contains ~needle:"c\\nd" s);
        check "tab" true (contains ~needle:"d\\tee" s);
        check "control" true (contains ~needle:"\\u0001" s);
        check "raw newline gone" true (not (String.contains s '\n'));
        let s = render [ ("x", Wire.Json.Float nan); ("y", Wire.Json.Float infinity) ] in
        check "nan" true (contains ~needle:"\"x\":null" s);
        check "inf" true (contains ~needle:"\"y\":null" s));
    Alcotest.test_case "a span survives its JSONL line" `Quick (fun () ->
        let fields =
          [
            ("route", Wire.Json.String "tree-dp \"k=2\"");
            ("nodes", Wire.Json.Int (-12));
            ("ok", Wire.Json.Bool false);
            ("share", Wire.Json.Float 0.1234567891234);
            ("tiny", Wire.Json.Float 5e-324);
          ]
        in
        let elapsed_s = 0.1234567891234 in
        let line =
          Wire.Json.to_string
            (Telemetry.json_of_record
               (Telemetry.Span
                  { name = "solver.attempt"; elapsed_s; fields; counters = [] }))
        in
        let j = Wire.Json.parse line in
        check "name" true (Wire.Json.string_member "name" j = Some "solver.attempt");
        check "every field" true
          (Wire.Json.member "fields" j = Some (Wire.Json.Obj fields));
        check "elapsed_s bit-exact" true
          (Option.map Int64.bits_of_float (Wire.Json.float_member "elapsed_s" j)
          = Some (Int64.bits_of_float elapsed_s));
        (* The sink's own lines, with clock-read durations, parse back to
           the records a memory sink saw beside it. *)
        let path = Filename.temp_file "cqcsp-test" ".jsonl" in
        Fun.protect ~finally:(fun () -> Sys.remove path) @@ fun () ->
        let oc = open_out path in
        let mem, drain = Telemetry.Sink.memory () in
        let records =
          with_sink
            (Some (Telemetry.Sink.tee mem (Telemetry.Sink.jsonl oc)))
            (fun () ->
              Telemetry.with_span "phase" ~fields (fun () ->
                  Telemetry.time "t.x" (fun () -> Telemetry.count "n.m" 2));
              Telemetry.flush ();
              drain ())
        in
        close_out oc;
        let lines = In_channel.with_open_text path In_channel.input_lines in
        check_int "span, counter and timer" 3 (List.length records);
        check "each line parses to its record" true
          (List.map Wire.Json.parse lines = List.map Telemetry.json_of_record records));
    Alcotest.test_case "jsonl sink streams one line per record" `Quick
      (fun () ->
        let path = Filename.temp_file "cqcsp-test" ".jsonl" in
        Fun.protect ~finally:(fun () -> Sys.remove path) @@ fun () ->
        let oc = open_out path in
        with_sink
          (Some (Telemetry.Sink.jsonl oc))
          (fun () ->
            Telemetry.with_span "phase" (fun () -> Telemetry.count "n.m" 1);
            Telemetry.flush ());
        close_out oc;
        let lines =
          In_channel.with_open_text path In_channel.input_lines
          |> List.filter (fun l -> String.trim l <> "")
        in
        check_int "span + counter line" 2 (List.length lines);
        List.iter
          (fun l ->
            check "object per line" true
              (String.length l > 1 && l.[0] = '{' && l.[String.length l - 1] = '}'))
          lines;
        check "span line" true (contains ~needle:"\"type\":\"span\"" (List.nth lines 0));
        check "counter line" true
          (contains ~needle:"\"type\":\"counter\"" (List.nth lines 1)));
    Alcotest.test_case "tee duplicates records and flushes to both" `Quick
      (fun () ->
        let s1, d1 = Telemetry.Sink.memory () in
        let s2, d2 = Telemetry.Sink.memory () in
        with_sink
          (Some (Telemetry.Sink.tee s1 s2))
          (fun () ->
            Telemetry.count "c.c" 2;
            Telemetry.flush ());
        check "both drains agree" true (d1 () = d2 ());
        check "something arrived" true (d1 () <> [] || d2 () <> []));
  ]

(* ------------------------------------------------------------------ *)
(* Observer effect: sinks never change answers                          *)
(* ------------------------------------------------------------------ *)

(* The full result — verdict with its certificate, deciding route, and
   the per-route attempt reports including engine counters — compared
   structurally across telemetry modes. *)
let solve_result (a, b) = Solver.solve a b

let run_disabled pair = with_sink None (fun () -> solve_result pair)

let run_memory pair = with_memory (fun _ -> solve_result pair)

let run_jsonl pair =
  let path = Filename.temp_file "cqcsp-test" ".jsonl" in
  Fun.protect ~finally:(fun () -> Sys.remove path) @@ fun () ->
  let oc = open_out path in
  Fun.protect ~finally:(fun () -> close_out oc) @@ fun () ->
  with_sink
    (Some (Telemetry.Sink.jsonl oc))
    (fun () ->
      let r = solve_result pair in
      Telemetry.flush ();
      r)

let observer_tests =
  [
    qtest ~count:150
      "verdicts, certificates and attempts are identical across sinks"
      (arbitrary_pair ())
      (fun pair ->
        let off = run_disabled pair in
        let mem = run_memory pair in
        let strm = run_jsonl pair in
        off = mem && off = strm);
    Alcotest.test_case "budget-exhausted runs still agree and still flush"
      `Quick (fun () ->
        let a = Testkit.Workloads.clique 8 and b = Testkit.Workloads.clique 7 in
        let budgeted () =
          Solver.solve ~budget:(Budget.create ~max_nodes:400 ()) a b
        in
        let off = with_sink None budgeted in
        let records = ref [] in
        let mem =
          with_memory (fun drain ->
              let r = budgeted () in
              Telemetry.flush ();
              records := drain ();
              r)
        in
        check "same degraded result" true (off = mem);
        check "attempt spans were emitted" true
          (List.exists (span_named "solver.attempt") !records);
        check "solve span was emitted" true
          (List.exists (span_named "solver.solve") !records));
  ]

let () =
  Alcotest.run "telemetry"
    [
      ("disabled", disabled_tests);
      ("counters-spans", counter_tests);
      ("json-sinks", json_tests);
      ("observer-effect", observer_tests);
    ]
