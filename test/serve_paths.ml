(* Request-path parity report: every frame below runs four ways — in
   process and sandboxed, each as a single frame and as a one-member
   batch [frame] — through a fresh server config per way.  Each response
   line (and each streamed line passed to [emit]) is printed with its
   "elapsed_ms" fields removed, followed by the cache and worker counters
   of that way.  The runtest rule diffs the report against
   cli/serve_paths.expected, so a change in what any request path
   answers, or in how many cache lookups and forks it costs, shows up
   here. *)

module Json = Wire.Json
module Server = Serve.Server

let triangle = "size 3\nE 0 1\nE 1 2\nE 2 0\n"

let k2 = "size 2\nE 0 1\nE 1 0\n"

let path = "size 2\nE 0 1\n"

(* An edge plus an isolated element: 9 maps into the triangle, so a
   limit of 3 truncates the stream. *)
let edge_and_point = "size 3\nE 0 1\n"

let bad = "size 2\nE 0 zebra\n"

let obj id op fields =
  Json.Obj ([ ("id", Json.Int id); ("op", Json.String op) ] @ fields)

let pair source target =
  [ ("source", Json.String source); ("target", Json.String target) ]

let frames =
  [
    ("sat", obj 1 "solve" (pair path triangle));
    ("unsat certified", obj 2 "solve" (pair triangle k2 @ [ ("certify", Json.Bool true) ]));
    ("unknown", obj 3 "solve" (pair triangle k2 @ [ ("max_nodes", Json.Int 1) ]));
    ( "contain",
      obj 4 "contain"
        [
          ("q1", Json.String "Q(X) :- E(X,Y), E(Y,Z).");
          ("q2", Json.String "Q(X) :- E(X,Y).");
        ] );
    ("bad source", obj 5 "solve" (pair bad k2));
    ("bad target", obj 6 "solve" (pair k2 bad));
    ( "enumerate",
      obj 7 "enumerate"
        (pair edge_and_point triangle @ [ ("limit", Json.Int 3); ("batch", Json.Int 2) ]) );
  ]

let rec strip = function
  | Json.Obj fields ->
    Json.Obj
      (List.filter_map
         (fun (k, v) -> if k = "elapsed_ms" then None else Some (k, strip v))
         fields)
  | Json.List items -> Json.List (List.map strip items)
  | j -> j

let show line = Json.to_string (strip (Json.parse line))

let ways =
  [
    ("in-process single", false, false);
    ("in-process batch", false, true);
    ("sandboxed single", true, false);
    ("sandboxed batch", true, true);
  ]

let () =
  List.iter
    (fun (way, sandboxed, batch) ->
      let pool = if sandboxed then Some (Serve.Worker.create_pool ()) else None in
      let cfg = { (Server.default_config ()) with Server.sandbox = pool } in
      Printf.printf "== %s\n" way;
      List.iter
        (fun (label, frame) ->
          let frame = if batch then Json.List [ frame ] else frame in
          let emit line = Printf.printf "%s | emit | %s\n" label (show line) in
          let resp = Server.handle_line ~emit cfg (Json.to_string frame) in
          Printf.printf "%s | %s\n" label (show resp))
        frames;
      let c = Serve.Cache.stats cfg.Server.cache in
      Printf.printf "cache hits=%d misses=%d" c.Serve.Cache.hits c.Serve.Cache.misses;
      (match pool with
      | Some p ->
        let w = Serve.Worker.stats p in
        Printf.printf " workers spawned=%d completed=%d" w.Serve.Worker.spawned
          w.Serve.Worker.completed
      | None -> ());
      print_newline ())
    ways
