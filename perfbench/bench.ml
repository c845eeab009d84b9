(* The serve benchmark.  See README.md for the workloads and metrics.

   bench.exe --workload NAME --seed N --seconds S --trace 0|1

   --trace 0 drives a `cqc serve --socket` daemon in a closed loop over
   one connection and prints the end-to-end metrics; --trace 1 sends a
   fixed number of frames to the daemon (exact stats counts, protocol
   overhead), then replays the same frame stream in process with a span
   around each layer call and prints the per-layer metrics.  The last
   stdout line is the result object. *)

module J = Serve.Json

let now = Unix.gettimeofday

let die fmt = Printf.ksprintf (fun msg -> prerr_endline ("bench: " ^ msg); exit 1) fmt

(* Nearest-rank percentile of an unsorted sample. *)
let percentile q xs =
  match xs with
  | [] -> 0.
  | _ ->
    let a = Array.of_list xs in
    Array.sort Float.compare a;
    let n = Array.length a in
    a.(max 0 (min (n - 1) (int_of_float (Float.ceil (q *. float_of_int n)) - 1)))

let median = percentile 0.5

(* Starts per run for setup_s: one start takes a few milliseconds and
   moves by double-digit percentages between runs; their median does
   not.  The host's speed switches within seconds (see [block]), so the
   starts are spread over the run, one after each timed block: starts
   made back to back all catch the speed of one moment. *)
let setup_starts = 15

(* Frames the traced run sends to the daemon: a fixed number, so the
   stats counts it reports repeat exactly for a seed. *)
let traced_daemon_frames = 96

(* The untraced timed phase runs in blocks of at least this many frames
   (see [block] below) for [--seconds] and at least [min_blocks] blocks.
   A block is clean with at most [stolen_ms_per_s] of steal per second
   of wall time, counted in 10 ms ticks over both CPUs; with fewer than
   [contended_blocks] clean blocks, the least stolen ones stand in.  A
   frame is quiet when no steal tick was counted within [quiet_window_s]
   of it; the p99's sample takes quiet frames until it has [tail_frames]
   of them, where the run has that many.  The
   daemon's heap high-water mark, which keeps rising slowly with the
   requests served, is read after the first block: a fixed point of the
   frame stream, whatever the host's speed. *)
let untraced_block_frames = 500
let min_blocks = 4
let contended_blocks = 2
let stolen_ms_per_s = 50.
let quiet_window_s = 0.05
let tail_frames = 1000

(* A hard stop for a pathologically slow host. *)
let max_seconds = 150.

(* Two fixed kernels, timed before and after each workload and printed
   next to the metrics so that a slowed host shows: integer arithmetic in
   registers, and dependent random reads over 32 MiB (memory latency,
   which contention from other guests moves more than arithmetic). *)
let host_kernels_ms () =
  let t0 = now () in
  let x = ref 1 in
  for i = 1 to 30_000_000 do
    x := (!x * 1103515245) + i land 0xffffff
  done;
  ignore (Sys.opaque_identity !x);
  let t1 = now () in
  let mask = (1 lsl 22) - 1 in
  let a = Array.init (mask + 1) (fun i -> (i * 40503) land mask) in
  let j = ref 0 in
  for _ = 1 to 500_000 do
    j := (a.(!j) + 1) land mask
  done;
  ignore (Sys.opaque_identity !j);
  (1000. *. (t1 -. t0), 1000. *. (now () -. t1))

(* CPU time the hypervisor gave to other guests, summed over all CPUs
   (the "steal" column of /proc/stat, in USER_HZ = 100 ticks). *)
let steal_ms () =
  match In_channel.with_open_bin "/proc/stat" In_channel.input_line with
  | Some line -> (
    match List.filter (( <> ) "") (String.split_on_char ' ' line) with
    | "cpu" :: fields when List.length fields >= 8 -> 10. *. float_of_string (List.nth fields 7)
    | _ -> 0.)
  | None | (exception Sys_error _) -> 0.

(* ------------------------------------------------------------------ *)
(* One daemon session                                                   *)
(* ------------------------------------------------------------------ *)

let write_templates (w : Gen.workload) dir =
  if w.templates = [] then []
  else begin
    List.iter
      (fun (file, text) ->
        Out_channel.with_open_bin (Filename.concat dir file) (fun oc ->
            output_string oc text))
      w.templates;
    let manifest = Filename.concat dir "manifest" in
    Out_channel.with_open_bin manifest (fun oc ->
        List.iter (fun (file, _) -> output_string oc (file ^ "\n")) w.templates);
    [ "--warm"; manifest ]
  end

let daemon_args (w : Gen.workload) dir =
  (if w.sandbox then [] else [ "--no-sandbox" ]) @ write_templates w dir

type exchange = {
  latency_ms : float;
  first_ms : float;  (** Until the first line carrying an answer. *)
  answers : int;
  ok : bool;
  server_ms : float;  (** The response's own [elapsed_ms]. *)
  nodes : int option;  (** Solver nodes reported by a verdict. *)
}

(* Send one frame and read its response lines.  A verdict is one answer
   carried by the final line; an enumerate stream's answers arrive in
   ["answers"] frames before it. *)
let exchange (d : Daemon.t) (f : Gen.frame) =
  let t0 = now () in
  Daemon.send d.conn f.line;
  let rec read first answers =
    let line = Daemon.read_line d.replies in
    let t = now () in
    let j = J.parse line in
    match (J.string_member "frame" j, J.member "answers" j) with
    | Some "answers", Some (J.List l) ->
      read (if Float.is_nan first then t else first) (answers + List.length l)
    | _ -> (j, t, first, answers)
  in
  let j, t1, first, streamed = read Float.nan 0 in
  let status_ok = J.string_member "status" j = Some "ok" in
  let ok =
    status_ok
    &&
    match f.expect with
    | Gen.Verdict { sat; certify } ->
      J.string_member "verdict" j = Some (if sat then "sat" else "unsat")
      && ((not certify) || J.bool_member "certified" j = Some true)
    | Gen.Answers { count; complete } ->
      J.int_member "count" j = Some count
      && J.bool_member "complete" j = Some complete
      && streamed = count
  in
  let answers = match f.expect with Gen.Verdict _ -> if ok then 1 else 0 | Gen.Answers _ -> streamed in
  {
    latency_ms = 1000. *. (t1 -. t0);
    first_ms = 1000. *. ((if Float.is_nan first then t1 else first) -. t0);
    answers;
    ok;
    server_ms = Option.value ~default:0. (J.float_member "elapsed_ms" j);
    nodes = J.int_member "nodes" j;
  }

(* Check the stats deltas of [frames] solve / contain / enumerate
   frames against the workload's shape. *)
let shape_errors (w : Gen.workload) ~frames (st : Daemon.stats) =
  let want name got expected =
    if got = expected then None
    else Some (Printf.sprintf "%s: %d over %d frames, expected %d" name got frames expected)
  in
  List.filter_map Fun.id
    (if w.fresh_templates then
       [ want "cache hits" st.hits 0; want "cache misses" st.misses frames;
         want "cache evictions" st.evictions frames; want "workers spawned" st.spawned frames;
         want "worker crashes" st.crashes 0 ]
     else
       [ want "cache hits" st.hits frames; want "cache misses" st.misses 0;
         want "workers spawned" st.spawned 0 ])

(* A block of consecutive timed frames with its own wall, CPU and steal
   time.  On a shared VM two things disturb a run.  The hypervisor stops
   the guest for bursts of up to seconds; frames in flight stall, fill
   the latency tail and lower the rate, by time the program never got.
   And between bursts the daemon's speed switches, within seconds,
   between a slow and a fast state, in a share that varies from run to
   run.  So only clean blocks count.  Rates, medians and CPU per frame
   are taken over the [contended_blocks] slowest, the slow state that the
   runs reach.  The p99 needs more frames (ten samples above it), so it
   is taken over the slower half of the clean blocks, and only over
   quiet frames: a stall the hypervisor counts as steal lands whole in
   the latency of the frame it hits. *)
type block = {
  exchanges : (string * exchange) list;
  wall_s : float;
  cpu_ms : float;
  steal_ms : float;  (** CPU time the hypervisor stole during the block. *)
  quiet_latencies : float list;
      (** Latencies of the frames with no steal tick counted within
          [quiet_window_s] of them. *)
}

let clean b = b.steal_ms <= stolen_ms_per_s *. b.wall_s

let rate b = float_of_int (List.length b.exchanges) /. b.wall_s

let first k l = List.filteri (fun i _ -> i < k) l

(* The clean blocks, slowest first. *)
let pool blocks =
  let pool =
    match List.filter clean blocks with
    | clean when List.length clean >= contended_blocks -> clean
    | _ -> first contended_blocks (List.sort (fun a b -> Float.compare a.steal_ms b.steal_ms) blocks)
  in
  List.sort (fun a b -> Float.compare (rate a) (rate b)) pool

(* The p99's sample: the quiet frames of the slower half of the pool,
   then of further blocks until there are [tail_frames] of them: the
   rest of the pool in rate order, then the others, least stolen
   first. *)
let tail_sample blocks =
  let pool = pool blocks in
  let others =
    List.sort (fun a b -> Float.compare a.steal_ms b.steal_ms)
      (List.filter (fun b -> not (List.memq b pool)) blocks)
  in
  let half = (List.length pool + 1) / 2 in
  let rec take i acc = function
    | b :: rest when i < half || List.length acc < tail_frames ->
      take (i + 1) (List.rev_append b.quiet_latencies acc) rest
    | _ -> acc
  in
  take 0 [] (pool @ others)

(* The latencies of the frames [(start, stop, latency)] that lie more
   than [quiet_window_s] from every steal tick, given as the sorted times
   [ticks] at which one was counted. *)
let quiet_latencies frames ticks =
  let ticks = Array.of_list ticks in
  (* The first tick at or after [t]. *)
  let rec search lo hi t =
    if lo >= hi then lo
    else
      let mid = (lo + hi) / 2 in
      if ticks.(mid) < t then search (mid + 1) hi t else search lo mid t
  in
  List.filter_map
    (fun (start, stop, latency) ->
      let i = search 0 (Array.length ticks) (start -. quiet_window_s) in
      if i < Array.length ticks && ticks.(i) <= stop +. quiet_window_s then None else Some latency)
    frames

type session = {
  blocks : block list;
  warm_failed : int;
  rss_mb : float;
  stats : Daemon.stats;  (** Deltas over the timed blocks. *)
}

(* Warm up, then send blocks of at least [block_frames] frames (whole
   rounds) until [enough] holds. *)
let session (w : Gen.workload) d ~seed ~block_frames ~between ~enough =
  let next = Gen.stream w ~seed in
  let warm_failed = ref 0 in
  for _ = 1 to w.warmup_frames do
    if not (exchange d (next ())).ok then incr warm_failed
  done;
  let stats0 = Daemon.stats d in
  let t0 = now () in
  let blocks = ref [] and rss_mb = ref None in
  while not (enough ~elapsed:(now () -. t0) ~blocks:!blocks) do
    let b0 = now () and cpu0 = Daemon.cpu_ms d.pid and steal0 = steal_ms () in
    (* Each frame's steal is read after its response, between frames. *)
    let log = ref [] and spans = ref [] and ticks = ref [] and last = ref steal0 and frames = ref 0 in
    while !frames < block_frames do
      for _ = 1 to Array.length w.families do
        let f = next () in
        let start = now () in
        let e = exchange d f in
        let stolen = steal_ms () and stop = now () in
        if stolen > !last then ticks := stop :: !ticks;
        last := stolen;
        log := (f.family, e) :: !log;
        spans := (start, stop, e.latency_ms) :: !spans;
        incr frames
      done
    done;
    let wall_s = now () -. b0 and cpu_ms = Daemon.cpu_ms d.pid -. cpu0 in
    let steal_ms = steal_ms () -. steal0 in
    if !rss_mb = None then rss_mb := Some (Daemon.rss_hwm_mb d.pid);
    let quiet_latencies = quiet_latencies !spans (List.rev !ticks) in
    blocks := { exchanges = !log; wall_s; cpu_ms; steal_ms; quiet_latencies } :: !blocks;
    between ()
  done;
  let stats = Daemon.diff stats0 (Daemon.stats d) in
  {
    blocks = List.rev !blocks;
    warm_failed = !warm_failed;
    rss_mb = Option.value ~default:0. !rss_mb;
    stats;
  }

let exchanges s = List.concat_map (fun b -> b.exchanges) s.blocks

let failures s = s.warm_failed + List.length (List.filter (fun (_, e) -> not e.ok) (exchanges s))

let report_shape w s =
  let frames = List.length (exchanges s) in
  let errors = shape_errors w ~frames s.stats in
  List.iter (fun e -> prerr_endline ("bench: stats shape: " ^ e)) errors;
  errors = []

(* ------------------------------------------------------------------ *)
(* Output                                                               *)
(* ------------------------------------------------------------------ *)

let print_result ~correct ~attempted ~failed metrics =
  let metric (name, value, unit) =
    let value = if Float.is_finite value then value else 0. in
    Printf.sprintf "%S: {\"value\": %.17g, \"unit\": %S}" name value unit
  in
  Printf.printf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n"
    correct attempted failed
    (String.concat ", " (List.map metric metrics))

let print_families s =
  let xs = exchanges s in
  let names = List.sort_uniq compare (List.map fst xs) in
  List.iter
    (fun name ->
      let ls =
        List.filter_map (fun (n, e) -> if n = name then Some e.latency_ms else None) xs
      in
      Printf.printf "family %-24s frames %5d  p50 %.3f ms  max %.3f ms\n" name
        (List.length ls) (median ls) (percentile 1.0 ls))
    names

(* ------------------------------------------------------------------ *)
(* --trace 0                                                            *)
(* ------------------------------------------------------------------ *)

let untraced w ~seed ~seconds ~dir =
  let args = daemon_args w dir in
  let start socket =
    let t0 = now () in
    let d = Daemon.start ~socket:(Filename.concat dir socket) ~args in
    (d, now () -. t0)
  in
  let d, dt = start "d.sock" in
  let setups = ref [ dt ] in
  let setup () =
    if List.length !setups < setup_starts then begin
      let d, dt = start "setup.sock" in
      Daemon.stop d;
      setups := dt :: !setups
    end
  in
  let s =
    Fun.protect ~finally:(fun () -> Daemon.stop d) (fun () ->
        session w d ~seed ~block_frames:untraced_block_frames ~between:setup
          ~enough:(fun ~elapsed ~blocks ->
            elapsed >= max_seconds || (elapsed >= seconds && List.length blocks >= min_blocks)))
  in
  for _ = List.length !setups to setup_starts - 1 do
    setup ()
  done;
  Printf.printf "setup starts, ms:%s\n"
    (String.concat "" (List.rev_map (fun dt -> Printf.sprintf " %.2f" (1000. *. dt)) !setups));
  print_families s;
  let frames = List.length (exchanges s) in
  Printf.printf "timed frames %d in %d blocks; per block rps, p50 ms, cpu ms/frame, stolen ms:%s\n" frames
    (List.length s.blocks)
    (String.concat ""
       (List.map
          (fun b ->
            let n = float_of_int (List.length b.exchanges) in
            Printf.sprintf " %.1f/%.3f/%.3f/%.0f" (n /. b.wall_s)
              (median (List.map (fun (_, e) -> e.latency_ms) b.exchanges))
              (b.cpu_ms /. n) b.steal_ms)
          s.blocks));
  let pool = pool s.blocks in
  let slowest = first contended_blocks pool in
  let xs = List.concat_map (fun b -> List.map snd b.exchanges) slowest in
  let n = float_of_int (List.length xs) in
  let wall_s = List.fold_left (fun acc b -> acc +. b.wall_s) 0. slowest in
  let cpu_ms = List.fold_left (fun acc b -> acc +. b.cpu_ms) 0. slowest in
  let answers = float_of_int (List.fold_left (fun acc e -> acc + e.answers) 0 xs) in
  let tail = tail_sample s.blocks in
  Printf.printf "latency_p99_ms rests on %d quiet frames of %d clean blocks\n" (List.length tail)
    (List.length (List.filter clean s.blocks));
  let shape_ok = report_shape w s in
  let failed = failures s in
  ( shape_ok && failed = 0,
    frames + w.warmup_frames,
    failed,
    [
      ("setup_s", median !setups, "s");
      ("throughput_rps", n /. wall_s, "1/s");
      ("latency_p50_ms", median (List.map (fun e -> e.latency_ms) xs), "ms");
      ("latency_p99_ms", percentile 0.99 tail, "ms");
      ("first_answer_p50_ms", median (List.map (fun e -> e.first_ms) xs), "ms");
      ("answers_per_s", answers /. wall_s, "1/s");
      ("cpu_ms_per_req", cpu_ms /. n, "ms");
      ("daemon_rss_mb", s.rss_mb, "MB");
    ] )

(* ------------------------------------------------------------------ *)
(* --trace 1                                                            *)
(* ------------------------------------------------------------------ *)

let timed_layers =
  [ "serve.json.parse"; "relational.parse"; "serve.cache.hit"; "serve.cache.miss";
    "preprocess.target_core"; "preprocess.shrink_source"; "core.solver.solve";
    "certificate.check"; "cq.containment_instance"; "enumerate.plan";
    "serve.protocol.serialize"; "serve.worker.execute" ]

let share_layers =
  [ "serve.json"; "relational"; "cq"; "serve.cache"; "preprocess"; "core.solver";
    "certificate"; "enumerate"; "serve.protocol"; "serve.worker" ]

let routes =
  [ "preprocess"; "schaefer-direct"; "booleanized"; "hell-nesetril"; "acyclic-yannakakis";
    "treewidth-dp"; "2-consistency"; "backtracking"; "acyclic-stream"; "treewidth-stream";
    "backtracking-stream" ]

let route_family r =
  let base = match String.index_opt r '(' with Some i -> String.sub r 0 i | None -> r in
  if List.mem base routes then base else "other"

let traced w ~seed ~seconds ~dir =
  let socket = Filename.concat dir "d.sock" in
  let d = Daemon.start ~socket ~args:(daemon_args w dir) in
  let s =
    Fun.protect ~finally:(fun () -> Daemon.stop d) (fun () ->
        session w d ~seed ~block_frames:traced_daemon_frames
          ~between:ignore
          ~enough:(fun ~elapsed:_ ~blocks -> blocks <> []))
  in
  let shape_ok = report_shape w s in
  let daemon_frames = List.length (exchanges s) in
  let st = s.stats in
  let r = Trace.replay w ~seed ~seconds in
  Trace.write_spans (Filename.concat (Filename.dirname dir) ("spans-" ^ w.wname ^ ".jsonl")) r.spans;
  let selfs = Trace.self_times r.spans in
  (* Per frame, the summed duration of each named span. *)
  let per_frame = Hashtbl.create 64 in
  List.iter
    (fun (sp : Trace.span) ->
      let key = (sp.name, sp.frame) in
      Hashtbl.replace per_frame key
        (sp.stop -. sp.start +. Option.value ~default:0. (Hashtbl.find_opt per_frame key)))
    r.spans;
  let p50_us name =
    let xs = Hashtbl.fold (fun (n, _) v acc -> if n = name then v :: acc else acc) per_frame [] in
    1e6 *. median xs
  in
  let total = List.fold_left (fun acc (sp : Trace.span) -> if sp.name = "frame" then acc +. sp.stop -. sp.start else acc) 0. r.spans in
  let self_of pred = List.fold_left (fun acc ((sp : Trace.span), t) -> if pred sp.name then acc +. t else acc) 0. selfs in
  let drain_self = self_of (fun n -> n = "enumerate.drain") in
  let route_total = List.fold_left (fun acc (_, n) -> acc + n) 0 st.routes in
  let route_share name =
    let n = List.fold_left (fun acc (r, n) -> if route_family r = name then acc + n else acc) 0 st.routes in
    if route_total = 0 then 0. else float_of_int n /. float_of_int route_total
  in
  let frames_f = float_of_int daemon_frames in
  let nodes = List.filter_map (fun (_, e) -> e.nodes) (exchanges s) in
  let metrics =
    List.map (fun n -> (n ^ "_us", p50_us n, "us")) timed_layers
    @ [
        ( "core.solver.nodes_per_req",
          float_of_int (List.fold_left ( + ) 0 nodes) /. float_of_int (max 1 (List.length nodes)),
          "count" );
        ( "enumerate.ns_per_answer",
          (if r.answers = 0 then 0. else 1e9 *. drain_self /. float_of_int r.answers),
          "ns" );
        ( "serve.overhead_ms",
          median (List.map (fun (_, e) -> e.latency_ms -. e.server_ms) (exchanges s)),
          "ms" );
        ( "serve.cache.hit_ratio",
          float_of_int st.hits /. float_of_int (max 1 (st.hits + st.misses)),
          "ratio" );
        ("serve.cache.hits", float_of_int st.hits, "count");
        ("serve.cache.misses", float_of_int st.misses, "count");
        ("serve.cache.evictions", float_of_int st.evictions, "count");
        ("serve.worker.spawned", float_of_int st.spawned, "count");
        ("serve.worker.spawned_per_req", float_of_int st.spawned /. frames_f, "ratio");
        ("serve.worker.completed", float_of_int st.completed, "count");
        ("serve.worker.crashes", float_of_int st.crashes, "count");
      ]
    @ List.map (fun r -> ("core.solver.route_share." ^ r, route_share r, "ratio")) (routes @ [ "other" ])
    @ List.map
        (fun l -> (l ^ ".self_share", self_of (fun n -> Trace.layer n = l) /. total, "ratio"))
        share_layers
    @ [ ("unaccounted_share", self_of (fun n -> n = "frame") /. total, "ratio") ]
  in
  let failed = failures s + r.failed in
  (shape_ok && failed = 0, daemon_frames + w.warmup_frames + r.frames, failed, metrics)

(* ------------------------------------------------------------------ *)
(* Main                                                                 *)
(* ------------------------------------------------------------------ *)

let rec remove_tree path =
  if Sys.is_directory path then begin
    Array.iter (fun f -> remove_tree (Filename.concat path f)) (Sys.readdir path);
    Sys.rmdir path
  end
  else Sys.remove path

let () =
  let workload = ref "" and seed = ref (-1) and seconds = ref 0. and trace = ref (-1) in
  let spec =
    [
      ("--workload", Arg.Set_string workload, " " ^ String.concat " | " (List.map (fun (w : Gen.workload) -> w.wname) Gen.all));
      ("--seed", Arg.Set_int seed, "N frame-stream seed");
      ("--seconds", Arg.Set_float seconds, "S length of the measured phase");
      ("--trace", Arg.Set_int trace, "0|1 end-to-end (0) or per-layer (1) metrics");
    ]
  in
  Arg.parse spec (fun a -> die "unexpected argument %S" a) "bench.exe --workload NAME --seed N --seconds S --trace 0|1";
  let w = match Gen.workload !workload with Some w -> w | None -> die "unknown workload %S" !workload in
  if !seed < 0 then die "--seed must be a non-negative integer";
  if !seconds <= 0. then die "--seconds must be positive";
  if !trace <> 0 && !trace <> 1 then die "--trace must be 0 or 1";
  if not (Sys.file_exists Daemon.cqc) then die "%s is not built" Daemon.cqc;
  Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
  let root = ".perfbench-run" in
  if not (Sys.file_exists root) then Sys.mkdir root 0o755;
  let dir = Filename.concat root (Printf.sprintf "%s-%d" w.wname (Unix.getpid ())) in
  Sys.mkdir dir 0o755;
  let cpu_before, mem_before = host_kernels_ms () and steal_before = steal_ms () in
  let correct, attempted, failed, metrics =
    Fun.protect ~finally:(fun () -> remove_tree dir) (fun () ->
        (if !trace = 0 then untraced else traced) w ~seed:!seed ~seconds:!seconds ~dir)
  in
  let steal = steal_ms () -. steal_before in
  let cpu_after, mem_after = host_kernels_ms () in
  Printf.printf
    "host reference (not gated): cpu kernel %.1f ms before, %.1f ms after; memory kernel \
     %.1f ms before, %.1f ms after; CPU time stolen by the hypervisor during the run %.0f ms\n"
    cpu_before cpu_after mem_before mem_after steal;
  print_result ~correct ~attempted ~failed metrics
