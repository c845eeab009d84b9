(* Serve-stack suite: the crash-proof request boundary under chaos.

   The invariant under test is the daemon's contract: [Server.handle_line]
   is TOTAL — for any input line, under any armed fault configuration, it
   returns exactly one well-typed JSON response and never raises.  The
   chaos property drives >=1000 fault-armed mixed requests through the
   handler and checks every response against the documented schema; the
   unit tests pin down the cache lifecycle (hit / intern / eviction /
   poisoning), fault-injection determinism and the JSON layer. *)

module Json = Serve.Json
module Fault = Serve.Fault
module Cache = Serve.Cache
module Protocol = Serve.Protocol
module Server = Serve.Server

let check = Alcotest.(check bool)

let check_int = Alcotest.(check int)

let check_str = Alcotest.(check string)

(* Structure texts reused across requests: K2 -> triangle is sat,
   triangle -> K2 (2-colouring an odd cycle) is unsat. *)
let triangle = "size 3\nE 0 1\nE 1 2\nE 2 0\n"

let k2 = "size 2\nE 0 1\nE 1 0\n"

let parse_structure text =
  Relational.Structure_text.parse text

(* ------------------------------------------------------------------ *)
(* Json: round-trips and adversarial input                              *)
(* ------------------------------------------------------------------ *)

let gen_json =
  QCheck.Gen.(
    sized @@ fix (fun self n ->
        let leaf =
          oneof
            [
              return Json.Null;
              map (fun b -> Json.Bool b) bool;
              map (fun i -> Json.Int i) small_signed_int;
              map (fun f -> Json.Float f) (float_bound_inclusive 1e9);
              map (fun s -> Json.String s) (string_size (int_bound 20));
            ]
        in
        if n = 0 then leaf
        else
          frequency
            [
              (3, leaf);
              (1, map (fun l -> Json.List l) (list_size (int_bound 4) (self (n / 2))));
              ( 1,
                map
                  (fun kvs -> Json.Obj kvs)
                  (list_size (int_bound 4)
                     (pair (string_size (int_bound 8)) (self (n / 2)))) );
            ]))

let arbitrary_json = QCheck.make ~print:Json.to_string gen_json

let json_roundtrip =
  QCheck.Test.make ~count:500 ~name:"Json.to_string round-trips through parse"
    arbitrary_json (fun j ->
      (* Duplicate object keys don't round-trip structurally; printing
         again after one round-trip must be a fixed point either way. *)
      let s = Json.to_string j in
      let j' = Json.parse s in
      Json.to_string j' = s)

let json_total_on_garbage =
  let gen = QCheck.Gen.(string_size ~gen:(map Char.chr (int_bound 255)) (int_bound 120)) in
  QCheck.Test.make ~count:1000
    ~name:"Json.parse: any byte string parses or raises Parse_error only"
    (QCheck.make ~print:String.escaped gen)
    (fun s ->
      match Json.parse s with
      | _ -> true
      | exception Json.Parse_error _ -> true)

let json_tests =
  [
    QCheck_alcotest.to_alcotest json_roundtrip;
    QCheck_alcotest.to_alcotest json_total_on_garbage;
    Alcotest.test_case "deep nesting fails with Parse_error, not stack overflow"
      `Quick (fun () ->
        let s = String.make 10_000 '[' in
        check "typed failure" true
          (match Json.parse s with
          | _ -> false
          | exception Json.Parse_error _ -> true));
    Alcotest.test_case "trailing garbage is rejected" `Quick (fun () ->
        check "rejected" true
          (match Json.parse "{\"a\":1} x" with
          | _ -> false
          | exception Json.Parse_error _ -> true));
    Alcotest.test_case "surrogate pairs decode, lone surrogates degrade"
      `Quick (fun () ->
        (match Json.parse "\"\\uD83D\\uDE00\"" with
        | Json.String s -> check_str "pair" "\xF0\x9F\x98\x80" s
        | _ -> Alcotest.fail "expected a string");
        match Json.parse "\"\\uD83Dx\"" with
        | Json.String s -> check_str "lone" "\xEF\xBF\xBDx" s
        | _ -> Alcotest.fail "expected a string");
    Alcotest.test_case "integers print as string_of_int and parse back" `Quick (fun () ->
        List.iter
          (fun i ->
            let s = Json.to_string (Json.Int i) in
            check_str (string_of_int i) (string_of_int i) s;
            check (s ^ " round-trips") true (Json.parse s = Json.Int i))
          [ 0; 1; -1; 9; -9; 10; -10; max_int; min_int ];
        check_str "list" "[0,-10,[]]"
          (Json.to_string (Json.List [ Json.Int 0; Json.Int (-10); Json.List [] ])));
    Alcotest.test_case "strings escape in place" `Quick (fun () ->
        check_str "escaped" {|{"k\"ey":"a\"b\\c\n\r\t\u0001\u001f/","":{}}|}
          (Json.to_string
             (Json.Obj [ ("k\"ey", Json.String "a\"b\\c\n\r\t\001\031/"); ("", Json.Obj []) ])));
    Alcotest.test_case "non-finite floats print as null" `Quick (fun () ->
        check_str "nan" "null" (Json.to_string (Json.Float Float.nan));
        check_str "inf" "null" (Json.to_string (Json.Float Float.infinity)));
  ]

(* ------------------------------------------------------------------ *)
(* Fault injection: determinism and spec parsing                        *)
(* ------------------------------------------------------------------ *)

let count_trips site n =
  let hits = ref 0 in
  for _ = 1 to n do
    match Fault.trip site with () -> () | exception Fault.Injected _ -> incr hits
  done;
  !hits

let with_faults spec f =
  Fault.arm spec;
  Fun.protect ~finally:Fault.disarm f

let fault_tests =
  [
    Alcotest.test_case "same seed, same trip sequence" `Quick (fun () ->
        let run () = with_faults "solve:42:0.3" (fun () -> count_trips Fault.Solve 500) in
        let a = run () and b = run () in
        check_int "deterministic" a b;
        check "some injected" true (a > 0 && a < 500));
    Alcotest.test_case "rate 0 never trips, rate 1 always trips" `Quick
      (fun () ->
        check_int "rate 0" 0
          (with_faults "parse:7:0.0" (fun () -> count_trips Fault.Parse 200));
        check_int "rate 1" 200
          (with_faults "parse:7:1.0" (fun () -> count_trips Fault.Parse 200)));
    Alcotest.test_case "site scoping: arming solve leaves parse quiet" `Quick
      (fun () ->
        with_faults "solve:3:1.0" (fun () ->
            check_int "parse quiet" 0 (count_trips Fault.Parse 50);
            check_int "solve armed" 50 (count_trips Fault.Solve 50)));
    Alcotest.test_case "all:seed:rate covers every site" `Quick (fun () ->
        with_faults "all:11:1.0" (fun () ->
            List.iter
              (fun s -> check_int (Fault.site_name s) 10 (count_trips s 10))
              Fault.all_sites);
        check "counts per site" true
          (Fault.injected_per_site () = []) (* disarm forgets counts *));
    Alcotest.test_case "malformed specs raise Invalid_argument" `Quick
      (fun () ->
        let bad spec =
          match Fault.arm spec with
          | () ->
            Fault.disarm ();
            false
          | exception Invalid_argument _ -> true
        in
        check "no fields" true (bad "solve");
        check "bad site" true (bad "oven:1:0.5");
        check "bad rate" true (bad "solve:1:2.0");
        check "bad seed" true (bad "solve:-1:0.5"));
  ]

(* ------------------------------------------------------------------ *)
(* Cache: hit / intern / eviction / poisoning                           *)
(* ------------------------------------------------------------------ *)

let cache_tests =
  [
    Alcotest.test_case "miss then hit, and the hit interns" `Quick (fun () ->
        let c = Cache.create ~capacity:4 () in
        let b1 = parse_structure triangle and b2 = parse_structure triangle in
        let first, fp1 =
          match Cache.lookup c b1 with
          | Cache.Miss (s, _), fp -> (s, fp)
          | _ -> Alcotest.fail "expected a miss"
        in
        check "miss interns the argument" true (first == b1);
        (match Cache.lookup c b2 with
        | Cache.Hit (s, _), fp ->
          check_str "same fingerprint" fp1 fp;
          check "hit returns the interned structure" true (s == b1)
        | _ -> Alcotest.fail "expected a hit");
        let st = Cache.stats c in
        check_int "hits" 1 st.Cache.hits;
        check_int "misses" 1 st.Cache.misses;
        check_int "entries" 1 st.Cache.entries);
    Alcotest.test_case "distinct templates get distinct fingerprints" `Quick
      (fun () ->
        check "fp differs" true
          (Cache.fingerprint (parse_structure triangle)
          <> Cache.fingerprint (parse_structure k2)));
    Alcotest.test_case "LRU eviction at capacity" `Quick (fun () ->
        let c = Cache.create ~capacity:2 () in
        let b name = parse_structure name in
        ignore (Cache.lookup c (b triangle));
        ignore (Cache.lookup c (b k2));
        (* Touch triangle so k2 is the LRU victim. *)
        ignore (Cache.lookup c (b triangle));
        let square = "size 4\nE 0 1\nE 1 2\nE 2 3\nE 3 0\n" in
        ignore (Cache.lookup c (b square));
        let st = Cache.stats c in
        check_int "evictions" 1 st.Cache.evictions;
        check_int "entries" 2 st.Cache.entries;
        (match Cache.lookup c (b triangle) with
        | Cache.Hit _, _ -> ()
        | _ -> Alcotest.fail "triangle should have survived");
        match Cache.lookup c (b k2) with
        | Cache.Miss _, _ -> ()
        | _ -> Alcotest.fail "k2 should have been evicted");
    Alcotest.test_case "build failure poisons; clear heals" `Quick (fun () ->
        let c = Cache.create ~capacity:4 () in
        with_faults "cache:5:1.0" (fun () ->
            match Cache.lookup c (parse_structure triangle) with
            | Cache.Poisoned msg, _ ->
              check "message mentions injection" true
                (String.length msg > 0)
            | _ -> Alcotest.fail "expected poisoning under a cache fault");
        (* Faults disarmed, but the poison mark is sticky... *)
        (match Cache.lookup c (parse_structure triangle) with
        | Cache.Poisoned _, _ -> ()
        | _ -> Alcotest.fail "poison marks must persist");
        let st = Cache.stats c in
        check_int "build failures" 1 st.Cache.build_failures;
        check "poisoned lookups" true (st.Cache.poisoned >= 2);
        (* ...until the cache is cleared. *)
        Cache.clear c;
        match Cache.lookup c (parse_structure triangle) with
        | Cache.Miss _, _ -> ()
        | _ -> Alcotest.fail "clear must drop poison marks");
    Alcotest.test_case "poisoning one template leaves others cacheable" `Quick
      (fun () ->
        let c = Cache.create ~capacity:4 () in
        with_faults "cache:5:1.0" (fun () ->
            ignore (Cache.lookup c (parse_structure triangle)));
        (match Cache.lookup c (parse_structure k2) with
        | Cache.Miss _, _ -> ()
        | _ -> Alcotest.fail "k2 should build fine");
        match Cache.lookup c (parse_structure k2) with
        | Cache.Hit _, _ -> ()
        | _ -> Alcotest.fail "k2 should now hit");
  ]

(* ------------------------------------------------------------------ *)
(* Protocol: request validation                                         *)
(* ------------------------------------------------------------------ *)

let parse_request line =
  Protocol.request_of_json (Json.parse line)

let protocol_tests =
  [
    Alcotest.test_case "well-formed solve request parses" `Quick (fun () ->
        match
          parse_request
            "{\"id\":7,\"op\":\"solve\",\"source\":\"s\",\"target\":\"t\",\
             \"max_nodes\":100,\"timeout\":1.5,\"certify\":true}"
        with
        | Ok r ->
          check "op" true (r.Protocol.op = Protocol.Solve);
          check "id" true (r.Protocol.id = Json.Int 7);
          check "max_nodes" true (r.Protocol.max_nodes = Some 100);
          check "timeout" true (r.Protocol.timeout = Some 1.5);
          check "certify" true r.Protocol.certify
        | Error e -> Alcotest.failf "unexpected rejection: %s" e);
    Alcotest.test_case "typed field errors" `Quick (fun () ->
        let rejected line =
          match parse_request line with Ok _ -> false | Error _ -> true
        in
        check "unknown op" true (rejected "{\"op\":\"frobnicate\"}");
        check "missing op" true (rejected "{\"id\":1}");
        check "solve without target" true
          (rejected "{\"op\":\"solve\",\"source\":\"s\"}");
        check "contain without q2" true
          (rejected "{\"op\":\"contain\",\"q1\":\"Q(X) :- E(X,Y).\"}");
        check "non-string source" true
          (rejected "{\"op\":\"solve\",\"source\":3,\"target\":\"t\"}");
        check "zero max_nodes" true
          (rejected
             "{\"op\":\"solve\",\"source\":\"s\",\"target\":\"t\",\"max_nodes\":0}");
        check "negative timeout" true
          (rejected
             "{\"op\":\"solve\",\"source\":\"s\",\"target\":\"t\",\"timeout\":-1}"));
    Alcotest.test_case "id recovered from invalid frames" `Quick (fun () ->
        check "id" true
          (Protocol.id_of_json (Json.parse "{\"id\":\"x\",\"op\":\"nope\"}")
          = Json.String "x"));
    Alcotest.test_case "fallback line is itself a typed response" `Quick
      (fun () ->
        let j = Json.parse Protocol.fallback_line in
        check "status" true (Json.string_member "status" j = Some "error");
        check "code" true (Json.int_member "code" j = Some 5));
  ]

(* ------------------------------------------------------------------ *)
(* The isolation boundary: handle_line is total and well-typed          *)
(* ------------------------------------------------------------------ *)

(* Schema check for one response line: must parse, and must carry the
   documented fields for its status.  Returns the parsed object. *)
let assert_typed_response line =
  let j =
    match Json.parse line with
    | j -> j
    | exception Json.Parse_error msg ->
      Alcotest.failf "response is not JSON (%s): %s" msg line
  in
  (match Json.member "id" j with
  | Some _ -> ()
  | None -> Alcotest.failf "response lacks id: %s" line);
  (match Json.string_member "status" j with
  | Some "ok" -> (
    match Json.string_member "op" j with
    | Some ("ping" | "stats") -> ()
    | Some ("solve" | "contain") -> (
      (match Json.string_member "verdict" j with
      | Some ("sat" | "unsat" | "unknown") -> ()
      | _ -> Alcotest.failf "ok verdict response lacks verdict: %s" line);
      (match Json.string_member "cache" j with
      | Some ("hit" | "miss" | "poisoned" | "none") -> ()
      | _ -> Alcotest.failf "verdict response lacks cache tag: %s" line);
      match Json.int_member "code" j with
      | Some (0 | 4) -> ()
      | _ -> Alcotest.failf "verdict response has bad code: %s" line)
    | _ -> Alcotest.failf "ok response has bad op: %s" line)
  | Some "error" -> (
    (match Json.string_member "error" j with
    | Some ("bad_input" | "unsupported" | "budget_exhausted" | "internal") ->
      ()
    | Some "worker_crash" -> (
      match Json.string_member "crash" j with
      | Some ("signal" | "oom" | "cpu" | "watchdog" | "protocol" | "exit") ->
        ()
      | _ -> Alcotest.failf "worker_crash response lacks crash class: %s" line)
    | _ -> Alcotest.failf "error response has bad kind: %s" line);
    (match Json.int_member "code" j with
    | Some (2 | 3 | 4 | 5 | 6) -> ()
    | _ -> Alcotest.failf "error response has bad code: %s" line);
    match Json.string_member "message" j with
    | Some _ -> ()
    | None -> Alcotest.failf "error response lacks message: %s" line)
  | Some "shed" -> (
    match Json.string_member "message" j with
    | Some _ -> ()
    | None -> Alcotest.failf "shed response lacks message: %s" line)
  | _ -> Alcotest.failf "response has bad status: %s" line);
  j

let handle cfg line =
  let resp =
    match Server.handle_line cfg line with
    | resp -> resp
    | exception e ->
      Alcotest.failf "handle_line raised %s on: %s" (Printexc.to_string e)
        line
  in
  assert_typed_response resp

let solve_frame ?id ?(certify = false) ?max_nodes source target =
  Json.to_string
    (Json.Obj
       ([ ("op", Json.String "solve") ]
       @ (match id with Some i -> [ ("id", Json.Int i) ] | None -> [])
       @ [ ("source", Json.String source); ("target", Json.String target) ]
       @ (match max_nodes with
         | Some n -> [ ("max_nodes", Json.Int n) ]
         | None -> [])
       @ if certify then [ ("certify", Json.Bool true) ] else []))

let expect_status expected j line =
  match Json.string_member "status" j with
  | Some s when s = expected -> ()
  | s ->
    Alcotest.failf "expected status %s, got %s for %s" expected
      (Option.value s ~default:"<none>") line

let expect_verdict expected j line =
  match Json.string_member "verdict" j with
  | Some s when s = expected -> ()
  | s ->
    Alcotest.failf "expected verdict %s, got %s for %s" expected
      (Option.value s ~default:"<none>") line

let handler_tests =
  [
    Alcotest.test_case "mixed well-formed requests get correct answers"
      `Quick (fun () ->
        let cfg = Server.default_config () in
        let j = handle cfg "{\"id\":1,\"op\":\"ping\"}" in
        expect_status "ok" j "ping";
        check "id echoed" true (Json.int_member "id" j = Some 1);
        let j = handle cfg (solve_frame ~id:2 k2 k2) in
        expect_verdict "sat" j "k2->k2";
        check "witness" true (Json.member "witness" j <> None);
        check "first sighting misses" true
          (Json.string_member "cache" j = Some "miss");
        let j = handle cfg (solve_frame ~id:3 ~certify:true triangle k2) in
        expect_verdict "unsat" j "triangle->k2";
        check "certified" true (Json.bool_member "certified" j = Some true);
        check "cache hit on repeated template" true
          (Json.string_member "cache" j = Some "hit");
        let j =
          handle cfg
            "{\"id\":4,\"op\":\"contain\",\"q1\":\"Q(X) :- E(X,Y), E(Y,Z).\",\
             \"q2\":\"Q(X) :- E(X,Y).\"}"
        in
        expect_verdict "sat" j "containment";
        let j = handle cfg "{\"id\":5,\"op\":\"stats\"}" in
        expect_status "ok" j "stats");
    Alcotest.test_case "malformed, truncated and oversized frames" `Quick
      (fun () ->
        let cfg = Server.default_config () in
        let expect_error line kind code =
          let j = handle cfg line in
          expect_status "error" j line;
          check_str "kind" kind
            (Option.value (Json.string_member "error" j) ~default:"<none>");
          check "code" true (Json.int_member "code" j = Some code)
        in
        expect_error "not json at all" "bad_input" 2;
        expect_error "{\"op\":\"solve\",\"source\":" "bad_input" 2;
        expect_error "{\"op\":\"launch\"}" "bad_input" 2;
        expect_error (solve_frame "size 2\nE 0 zebra\n" k2) "bad_input" 2;
        (* Oversized: a config with a tiny frame limit rejects with a
           typed error rather than reading on. *)
        let small =
          { (Server.default_config ()) with Server.max_frame_bytes = 64 }
        in
        let j = handle small (solve_frame triangle triangle) in
        expect_status "error" j "oversized frame";
        check "oversized is bad_input" true
          (Json.string_member "error" j = Some "bad_input"));
    Alcotest.test_case "budget: request max_nodes yields unknown, code 4"
      `Quick (fun () ->
        let cfg = Server.default_config () in
        let j = handle cfg (solve_frame ~max_nodes:1 triangle k2) in
        expect_verdict "unknown" j "starved solve";
        check "code 4" true (Json.int_member "code" j = Some 4));
    Alcotest.test_case "budget: server ceiling clamps a generous request"
      `Quick (fun () ->
        let cfg =
          { (Server.default_config ()) with Server.ceiling_nodes = Some 1 }
        in
        let j = handle cfg (solve_frame ~max_nodes:1_000_000 triangle k2) in
        expect_verdict "unknown" j "clamped solve");
    Alcotest.test_case "cancel flag drains in-flight work as typed unknown"
      `Quick (fun () ->
        (* Cancellation is polled, not preemptive: a solve that finishes
           under the poll interval completes (completing IS draining).
           Pair the flag with a node limit so the budget is consulted,
           and cancellation must win the precedence. *)
        let cfg = Server.default_config () in
        cfg.Server.cancel := true;
        let j = handle cfg (solve_frame ~max_nodes:1 triangle k2) in
        expect_verdict "unknown" j "cancelled solve";
        match Json.string_member "reason" j with
        | Some r ->
          check "reason names cancellation" true
            (String.length r >= 9
            && String.lowercase_ascii r |> fun r ->
               let rec has i =
                 i + 9 <= String.length r
                 && (String.sub r i 9 = "cancelled" || has (i + 1))
               in
               has 0)
        | None -> Alcotest.fail "unknown verdict lacks reason");
    Alcotest.test_case "admission shed becomes a typed shed response" `Quick
      (fun () ->
        let cfg =
          {
            (Server.default_config ()) with
            Server.admit = (fun () -> `Shed "server saturated");
          }
        in
        let j = handle cfg (solve_frame triangle k2) in
        expect_status "shed" j "shed";
        (* Ping bypasses admission: liveness probes must answer under
           load. *)
        let j = handle cfg "{\"op\":\"ping\"}" in
        expect_status "ok" j "ping under load");
    Alcotest.test_case "solve errors land in the latency histogram as none"
      `Quick (fun () ->
        (* A single frame and a one-member batch failing alike must both
           be filed: errors are latency samples too. *)
        let cfg = Server.default_config () in
        let internal j =
          check "internal error" true
            (Json.string_member "error" j = Some "internal")
        in
        with_faults "solve:1:1.0" (fun () ->
            internal (handle cfg (solve_frame ~id:1 k2 k2));
            let batch = "[" ^ solve_frame ~id:2 k2 k2 ^ "]" in
            match Json.parse (Server.handle_line cfg batch) with
            | Json.List [ member ] -> internal member
            | j ->
              Alcotest.failf "expected a one-member batch: %s"
                (Json.to_string j));
        let stats = handle cfg "{\"op\":\"stats\"}" in
        let count =
          Option.bind (Json.member "latency_ms" stats) (Json.member "none")
          |> Option.map (Json.int_member "count")
        in
        check "both errors filed under none" true (count = Some (Some 2)));
  ]

(* ------------------------------------------------------------------ *)
(* Chaos: >=1000 fault-armed mixed requests, zero crashes               *)
(* ------------------------------------------------------------------ *)

(* A deterministic stream of mixed frames: well-formed requests of every
   op (with template repetition so the cache is exercised), malformed
   JSON, truncated frames, garbage bytes. *)
let chaos_frame i =
  match i mod 10 with
  | 0 -> "{\"id\":" ^ string_of_int i ^ ",\"op\":\"ping\"}"
  | 1 | 2 -> solve_frame ~id:i k2 triangle
  | 3 -> solve_frame ~id:i ~certify:true triangle k2
  | 4 ->
    "{\"id\":" ^ string_of_int i
    ^ ",\"op\":\"contain\",\"q1\":\"Q(X) :- E(X,Y), E(Y,Z).\",\"q2\":\"Q(X) \
       :- E(X,Y).\"}"
  | 5 -> "{\"id\":" ^ string_of_int i ^ ",\"op\":\"stats\"}"
  | 6 -> solve_frame ~id:i ~max_nodes:1 triangle k2
  | 7 -> "{\"op\":\"solve\",\"source\":\"size 1\",\"target\":"
  | 8 -> "\x00\x01garbage \xFF frame"
  | _ -> solve_frame ~id:i "size 2\nE 0 zebra\n" k2

let chaos_run ~frames ~spec =
  let cfg = Server.default_config () in
  with_faults spec (fun () ->
      for i = 1 to frames do
        ignore (handle cfg (chaos_frame i))
      done;
      (Fault.injected_count (), Cache.stats cfg.Server.cache))

let chaos_tests =
  [
    Alcotest.test_case
      "1200 fault-armed mixed requests: zero crashes, all typed" `Slow
      (fun () ->
        let injected, cache = chaos_run ~frames:1200 ~spec:"all:42:0.08" in
        check "faults actually fired" true (injected > 100);
        check "cache hits accrued" true (cache.Cache.hits > 0));
    Alcotest.test_case "every site at rate 1.0 still answers every frame"
      `Quick (fun () ->
        List.iter
          (fun site ->
            let spec = Fault.site_name site ^ ":9:1.0" in
            let injected =
              if site = Fault.Worker then (
                (* The worker site is only consulted when a solve forks,
                   so this one needs a sandboxed config. *)
                let cfg =
                  {
                    (Server.default_config ()) with
                    Server.sandbox = Some (Serve.Worker.create_pool ());
                  }
                in
                with_faults spec (fun () ->
                    for i = 1 to 20 do
                      ignore (handle cfg (chaos_frame i))
                    done;
                    Fault.injected_count ()))
              else fst (chaos_run ~frames:50 ~spec)
            in
            check (spec ^ " injects") true (injected > 0))
          Fault.all_sites);
    Alcotest.test_case "respond fault at rate 1.0 falls back, never raises"
      `Quick (fun () ->
        let cfg = Server.default_config () in
        with_faults "respond:3:1.0" (fun () ->
            let resp = Server.handle_line cfg "{\"op\":\"ping\"}" in
            check_str "fallback" Protocol.fallback_line resp;
            ignore (assert_typed_response resp)));
    QCheck_alcotest.to_alcotest
      (QCheck.Test.make ~count:400
         ~name:"handle_line is total on random byte strings"
         (QCheck.make ~print:String.escaped
            QCheck.Gen.(
              string_size ~gen:(map Char.chr (int_bound 255)) (int_bound 200)))
         (fun s ->
           let cfg = Server.default_config () in
           ignore (assert_typed_response (Server.handle_line cfg s));
           true));
  ]

(* ------------------------------------------------------------------ *)
(* Sandboxed workers: the crash-classification matrix                   *)
(* ------------------------------------------------------------------ *)

module Worker = Serve.Worker
module Dump = Serve.Dump

let quick_limits =
  { Worker.mem_bytes = None; cpu_seconds = None; wall_seconds = 10. }

let exec ?(limits = quick_limits) compute =
  Worker.execute ~limits ~id:Json.Null compute

let expect_crash name result pred =
  match result with
  | Error (crash, detail) ->
    check (name ^ " class") true (pred crash);
    check (name ^ " has detail") true (String.length detail > 0)
  | Ok j -> Alcotest.failf "%s: expected a crash, got %s" name (Json.to_string j)

(* The synthetic-crasher structure: one BOOM tuple arms the hook. *)
let boom_structure =
  parse_structure "size 2\nrel E 2\nrel BOOM 1\nE 0 1\nBOOM 0\n"

let with_abort spec f =
  Unix.putenv "CQCSP_TEST_ABORT" spec;
  Fun.protect ~finally:(fun () -> Unix.putenv "CQCSP_TEST_ABORT" "") f

let create_test_pool () =
  Worker.create_pool
    ~limits:{ Worker.mem_bytes = None; cpu_seconds = None; wall_seconds = 10. }
    ()

let worker_tests =
  [
    Alcotest.test_case "healthy compute returns its frame" `Quick (fun () ->
        match exec (fun () -> Json.Obj [ ("x", Json.Int 7) ]) with
        | Ok (Json.Obj [ ("x", Json.Int 7) ]) -> ()
        | Ok j -> Alcotest.failf "wrong frame: %s" (Json.to_string j)
        | Error (_, d) -> Alcotest.failf "unexpected crash: %s" d);
    Alcotest.test_case "exceptions in compute are typed responses, not crashes"
      `Quick (fun () ->
        match exec (fun () -> Core.Error.bad_input "nope") with
        | Ok j ->
          check "bad_input" true (Json.string_member "error" j = Some "bad_input")
        | Error (_, d) -> Alcotest.failf "unexpected crash: %s" d);
    Alcotest.test_case "SIGKILL classifies as a signal crash" `Quick (fun () ->
        expect_crash "kill"
          (exec (fun () ->
               Unix.kill (Unix.getpid ()) Sys.sigkill;
               Json.Null))
          (function Core.Error.Crash_signal s -> s = Sys.sigkill | _ -> false));
    Alcotest.test_case "SIGSEGV via the abort hook classifies as a signal crash"
      `Quick (fun () ->
        with_abort "segv:BOOM" (fun () ->
            expect_crash "segv"
              (exec (fun () ->
                   Worker.test_abort_hook boom_structure;
                   Json.Null))
              (function
                | Core.Error.Crash_signal s -> s = Sys.sigsegv | _ -> false)));
    Alcotest.test_case "clean nonzero exit classifies as an exit crash" `Quick
      (fun () ->
        with_abort "exit:BOOM" (fun () ->
            expect_crash "exit"
              (exec (fun () ->
                   Worker.test_abort_hook boom_structure;
                   Json.Null))
              (function Core.Error.Crash_exit 3 -> true | _ -> false)));
    Alcotest.test_case "half-written frame classifies as a protocol crash"
      `Quick (fun () ->
        (* Exiting 0 without writing the frame is exactly what a child
           dying mid-write looks like from the parent. *)
        expect_crash "protocol"
          (exec (fun () ->
               if true then Unix._exit 0;
               Json.Null))
          (function Core.Error.Crash_protocol -> true | _ -> false));
    Alcotest.test_case "watchdog timeout kills and classifies a spinning child"
      `Quick (fun () ->
        let limits = { quick_limits with Worker.wall_seconds = 0.3 } in
        expect_crash "watchdog"
          (exec ~limits (fun () ->
               while true do
                 ignore (Sys.opaque_identity 0)
               done;
               Json.Null))
          (function Core.Error.Crash_watchdog -> true | _ -> false));
    Alcotest.test_case "RLIMIT_CPU overrun classifies as a cpu crash" `Slow
      (fun () ->
        let limits =
          { quick_limits with Worker.cpu_seconds = Some 1; wall_seconds = 30. }
        in
        expect_crash "cpu"
          (exec ~limits (fun () ->
               while true do
                 ignore (Sys.opaque_identity 0)
               done;
               Json.Null))
          (function Core.Error.Crash_cpu -> true | _ -> false));
    Alcotest.test_case "allocation over the memory ceiling answers oom" `Quick
      (fun () ->
        let limits =
          { quick_limits with Worker.mem_bytes = Some (64 * 1024 * 1024) }
        in
        match
          exec ~limits (fun () ->
              (* Far over the 64 MiB ceiling in one allocation. *)
              ignore (Sys.opaque_identity (Bytes.create (1 lsl 30)));
              Json.Null)
        with
        | Ok j ->
          (* The child caught Out_of_memory and answered the typed oom
             crash response itself. *)
          check "worker_crash" true
            (Json.string_member "error" j = Some "worker_crash");
          check "oom class" true (Json.string_member "crash" j = Some "oom")
        | Error (crash, _) ->
          (* Equally acceptable: the runtime aborted before the handler
             could answer. *)
          check "oom-adjacent death" true
            (match crash with
            | Core.Error.Crash_signal _ | Core.Error.Crash_oom
            | Core.Error.Crash_exit _ ->
              true
            | _ -> false));
    Alcotest.test_case "supervise: crash, degraded retry, typed code 6" `Quick
      (fun () ->
        let pool = create_test_pool () in
        let j =
          Worker.supervise pool ~id:(Json.Int 9)
            ~dump:(fun ~crash:_ ~detail:_ ~attempts:_ -> None)
            (fun ~degraded:_ ->
              Unix.kill (Unix.getpid ()) Sys.sigkill;
              Json.Null)
        in
        check "status error" true (Json.string_member "status" j = Some "error");
        check "kind" true (Json.string_member "error" j = Some "worker_crash");
        check "code 6" true (Json.int_member "code" j = Some 6);
        check "crash class" true (Json.string_member "crash" j = Some "signal");
        check "id echoed" true (Json.int_member "id" j = Some 9);
        let st = Worker.stats pool in
        check_int "both attempts crashed" 2 st.Worker.crashes_total;
        check_int "one retry" 1 st.Worker.retries;
        check_int "no completion" 0 st.Worker.completed;
        check_int "nothing live" 0 st.Worker.live);
    Alcotest.test_case "supervise: first crash, retry succeeds" `Quick
      (fun () ->
        let pool = create_test_pool () in
        let j =
          Worker.supervise pool ~id:Json.Null
            ~dump:(fun ~crash:_ ~detail:_ ~attempts:_ ->
              Alcotest.fail "dump must not be written when the retry succeeds")
            (fun ~degraded ->
              if not degraded then Unix.kill (Unix.getpid ()) Sys.sigkill;
              Json.Obj [ ("ok", Json.Bool true) ])
        in
        check "retry answer" true (Json.bool_member "ok" j = Some true);
        let st = Worker.stats pool in
        check_int "one crash" 1 st.Worker.crashes_total;
        check_int "one retry" 1 st.Worker.retries;
        check_int "one completion" 1 st.Worker.completed);
    Alcotest.test_case "supervise: an oom member of a list answer is a crash"
      `Quick (fun () ->
        (* A worker answering for a batch group catches Out_of_memory per
           member, so the oom worker_crash arrives inside the list. *)
        let ok = Json.Obj [ ("id", Json.Int 1); ("status", Json.String "ok") ] in
        let oom = Protocol.error_of_exn ~id:(Json.Int 2) Out_of_memory in
        let ids = Json.List [ Json.Int 1; Json.Int 2 ] in
        let pool = create_test_pool () in
        let j =
          Worker.supervise pool ~id:ids
            ~dump:(fun ~crash:_ ~detail:_ ~attempts:_ ->
              Alcotest.fail "dump must not be written when the retry succeeds")
            (fun ~degraded -> Json.List [ ok; (if degraded then ok else oom) ])
        in
        check "retry answer" true (j = Json.List [ ok; ok ]);
        let st = Worker.stats pool in
        check_int "one oom" 1 st.Worker.crashes_oom;
        check_int "one retry" 1 st.Worker.retries;
        check_int "one completion" 1 st.Worker.completed;
        let pool = create_test_pool () in
        let dumps = ref 0 in
        let j =
          Worker.supervise pool ~id:ids
            ~dump:(fun ~crash ~detail:_ ~attempts:_ ->
              check "dumped as oom" true (crash = Core.Error.Crash_oom);
              incr dumps;
              None)
            (fun ~degraded:_ -> Json.List [ ok; oom ])
        in
        check "terminal worker_crash" true
          (Json.string_member "error" j = Some "worker_crash");
        check "oom class" true (Json.string_member "crash" j = Some "oom");
        check "code 6" true (Json.int_member "code" j = Some 6);
        check_int "one dump" 1 !dumps;
        let st = Worker.stats pool in
        check_int "both attempts counted" 2 st.Worker.crashes_oom;
        check_int "one retry" 1 st.Worker.retries;
        check_int "no completion" 0 st.Worker.completed);
    Alcotest.test_case "degraded limits halve time, keep memory" `Quick
      (fun () ->
        let l =
          Worker.degraded_limits
            {
              Worker.mem_bytes = Some 1000;
              cpu_seconds = Some 10;
              wall_seconds = 8.;
            }
        in
        check "mem kept" true (l.Worker.mem_bytes = Some 1000);
        check "cpu halved" true (l.Worker.cpu_seconds = Some 5);
        check "wall halved" true (l.Worker.wall_seconds = 4.);
        let tiny =
          Worker.degraded_limits
            { Worker.mem_bytes = None; cpu_seconds = None; wall_seconds = 0.1 }
        in
        check "wall floored" true (tiny.Worker.wall_seconds >= 0.5));
    Alcotest.test_case "abort hook is inert without its trigger relation"
      `Quick (fun () ->
        (* All in-process: the hook must be a no-op when disarmed, when
           the relation is absent, and when it is empty — otherwise this
           test runner would die here. *)
        Worker.test_abort_hook boom_structure;
        with_abort "segv:ABSENT" (fun () ->
            Worker.test_abort_hook boom_structure);
        with_abort "segv:BOOM" (fun () ->
            Worker.test_abort_hook
              (parse_structure "size 1\nrel BOOM 1\n"));
        with_abort "garbage-spec" (fun () ->
            Worker.test_abort_hook boom_structure));
    Alcotest.test_case "dump round-trips through its JSON encoding" `Quick
      (fun () ->
        let d =
          Dump.make ~line:"{\"op\":\"solve\"}"
            ~crash:(Core.Error.Crash_signal Sys.sigsegv)
            ~detail:"killed by SIGSEGV" ~attempts:2
            ~limits:
              {
                Worker.mem_bytes = Some 123;
                cpu_seconds = None;
                wall_seconds = 2.5;
              }
        in
        match Dump.of_json (Json.parse (Json.to_string (Dump.to_json d))) with
        | Ok d' ->
          check "line" true (d'.Dump.line = d.Dump.line);
          check "crash class survives (payload may not)" true
            (Core.Error.crash_class_name d'.Dump.crash = "signal");
          check_int "attempts" 2 d'.Dump.attempts;
          check "mem" true (d'.Dump.mem_bytes = Some 123);
          check "cpu" true (d'.Dump.cpu_seconds = None);
          check "wall" true (d'.Dump.wall_seconds = 2.5)
        | Error msg -> Alcotest.failf "round-trip rejected: %s" msg);
    Alcotest.test_case "dump validation rejects bad documents" `Quick
      (fun () ->
        let rejected s =
          match Dump.of_json (Json.parse s) with
          | Ok _ -> false
          | Error _ -> true
        in
        check "empty" true (rejected "{}");
        check "bad version" true
          (rejected
             "{\"version\":99,\"line\":\"x\",\"crash\":\"oom\",\"detail\":\"d\",\
              \"attempts\":1,\"wall_seconds\":1}");
        check "bad class" true
          (rejected
             "{\"version\":1,\"line\":\"x\",\"crash\":\"gremlins\",\"detail\":\"d\",\
              \"attempts\":1,\"wall_seconds\":1}"));
  ]

(* ------------------------------------------------------------------ *)
(* Sandboxed chaos: worker kills with exact restart accounting          *)
(* ------------------------------------------------------------------ *)

let temp_spool () =
  let dir =
    Filename.concat
      (Filename.get_temp_dir_name ())
      (Printf.sprintf "cqcsp-spool-%d" (Unix.getpid ()))
  in
  (try Unix.mkdir dir 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ());
  dir

let sandbox_chaos_tests =
  [
    Alcotest.test_case
      "worker-site chaos: kills are retried, counted, and never escape" `Slow
      (fun () ->
        let spool = temp_spool () in
        let pool = create_test_pool () in
        let cfg =
          {
            (Server.default_config ()) with
            Server.sandbox = Some pool;
            spool_dir = Some spool;
          }
        in
        let frames = 300 in
        let terminal = ref 0 in
        with_faults "worker:1337:0.25" (fun () ->
            for i = 1 to frames do
              let j = handle cfg (chaos_frame i) in
              if Json.string_member "error" j = Some "worker_crash" then
                incr terminal
            done);
        let st = Worker.stats pool in
        check "kills actually happened" true (st.Worker.crashes_total > 0);
        (* Exact accounting: every crash is either absorbed by the one
           degraded retry or surfaces as exactly one terminal worker_crash
           response; every spawn either completes or crashes. *)
        check_int "crashes = retries + terminal responses"
          st.Worker.crashes_total
          (st.Worker.retries + !terminal);
        check_int "spawns = completions + crashes" st.Worker.spawned
          (st.Worker.completed + st.Worker.crashes_total);
        check_int "terminal crashes all spooled a dump" !terminal
          st.Worker.dumps;
        check_int "no leaked children" 0 st.Worker.live);
    Alcotest.test_case "sandboxed solve answers match in-process answers"
      `Quick (fun () ->
        let sandboxed =
          { (Server.default_config ()) with Server.sandbox = Some (create_test_pool ()) }
        in
        let j = handle sandboxed (solve_frame ~id:1 k2 k2) in
        expect_verdict "sat" j "sandboxed k2->k2";
        let j = handle sandboxed (solve_frame ~id:2 ~certify:true triangle k2) in
        expect_verdict "unsat" j "sandboxed triangle->k2";
        check "certified through the pipe" true
          (Json.bool_member "certified" j = Some true);
        let j = handle sandboxed (solve_frame ~id:3 ~max_nodes:1 triangle k2) in
        expect_verdict "unknown" j "sandboxed starved solve");
    Alcotest.test_case "terminal crash response names its spooled dump" `Quick
      (fun () ->
        let spool = temp_spool () in
        let cfg =
          {
            (Server.default_config ()) with
            Server.sandbox = Some (create_test_pool ());
            spool_dir = Some spool;
          }
        in
        let boom =
          "size 2\nrel E 2\nrel BOOM 1\nE 0 1\nBOOM 0\nBOOM 1\n"
        in
        let target = "size 1\nrel E 2\nrel BOOM 1\n" in
        let j =
          with_abort "kill:BOOM" (fun () ->
              handle cfg (solve_frame ~id:42 boom target))
        in
        check "code 6" true (Json.int_member "code" j = Some 6);
        let path =
          match Json.string_member "dump" j with
          | Some p -> p
          | None -> Alcotest.fail "terminal crash response lacks dump path"
        in
        match Dump.read path with
        | Ok d ->
          check "dump records the request line" true
            (let line = d.Dump.line in
             let needle = "BOOM" in
             let rec has i =
               i + String.length needle <= String.length line
               && (String.sub line i (String.length needle) = needle
                  || has (i + 1))
             in
             has 0);
          check "dump records the abort spec" true
            (d.Dump.abort_spec = Some "kill:BOOM");
          check_int "two attempts" 2 d.Dump.attempts
        | Error msg -> Alcotest.failf "spooled dump unreadable: %s" msg);
  ]

let () =
  Alcotest.run "serve"
    [
      ("json", json_tests);
      ("fault", fault_tests);
      ("cache", cache_tests);
      ("protocol", protocol_tests);
      ("handler", handler_tests);
      ("chaos", chaos_tests);
      ("worker", worker_tests);
      ("sandbox-chaos", sandbox_chaos_tests);
    ]
