type limits = {
  mem_bytes : int option;
  cpu_seconds : int option;
  wall_seconds : float;
}

let default_limits =
  { mem_bytes = Some (1 lsl 30); cpu_seconds = Some 20; wall_seconds = 30. }

let degraded_limits l =
  {
    mem_bytes = l.mem_bytes;
    cpu_seconds = Option.map (fun c -> max 1 (c / 2)) l.cpu_seconds;
    wall_seconds = Float.max 0.5 (l.wall_seconds /. 2.);
  }

(* Result frames are tiny (a verdict object, at most a witness array the
   size of the source universe); anything bigger than this is garbage. *)
let frame_cap = 16 * 1024 * 1024

(* ------------------------------------------------------------------ *)
(* Child side                                                           *)
(* ------------------------------------------------------------------ *)

let rec write_all fd bytes off len =
  if len > 0 then begin
    match Unix.write fd bytes off len with
    | n -> write_all fd bytes (off + n) (len - n)
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> write_all fd bytes off len
  end

let write_frame fd payload =
  let len = String.length payload in
  let frame = Bytes.create (4 + len) in
  Bytes.set frame 0 (Char.chr ((len lsr 24) land 0xff));
  Bytes.set frame 1 (Char.chr ((len lsr 16) land 0xff));
  Bytes.set frame 2 (Char.chr ((len lsr 8) land 0xff));
  Bytes.set frame 3 (Char.chr (len land 0xff));
  Bytes.blit_string payload 0 frame 4 len;
  write_all fd frame 0 (4 + len)

let apply_rlimits limits =
  (* Best effort on purpose: a child that cannot lower a limit is still
     under the parent watchdog, and raising here would bypass the result
     protocol. *)
  Option.iter (fun b -> ignore (Rlimit.set Rlimit.Address_space b)) limits.mem_bytes;
  Option.iter (fun s -> ignore (Rlimit.set Rlimit.Cpu_time s)) limits.cpu_seconds

let run_child ~limits ~id ~pipe_w compute =
  (* The child inherited mutexes that may have been held by parent
     threads that no longer exist here; make the ones on the child's own
     code path safe before doing anything else. *)
  Telemetry.detach_after_fork ();
  Fault.relock_after_fork ();
  List.iter
    (fun s -> try Sys.set_signal s Sys.Signal_default with _ -> ())
    [ Sys.sigterm; Sys.sigint ];
  apply_rlimits limits;
  let payload =
    match compute () with
    | j -> j
    | exception e -> Protocol.error_of_exn ~id e
  in
  let line =
    match Json.to_string payload with
    | s -> s
    | exception _ -> Protocol.fallback_line
  in
  (try write_frame pipe_w line with _ -> ());
  (* _exit, not exit: at_exit would flush the parent's buffered stdio a
     second time from inside the child. *)
  Unix._exit 0

(* ------------------------------------------------------------------ *)
(* Parent side: watchdog read and death classification                  *)
(* ------------------------------------------------------------------ *)

type read_outcome =
  | Frame of string
  | Timed_out
  | Eof  (* pipe closed before a complete frame: child died mid-write *)
  | Garbage of string

let read_result fd ~deadline =
  let buf = Buffer.create 256 in
  let chunk = Bytes.create 8192 in
  let rec fill need =
    if Buffer.length buf >= need then `Ok
    else
      let timeout = deadline -. Unix.gettimeofday () in
      if timeout <= 0. then `Timeout
      else
        match Unix.select [ fd ] [] [] timeout with
        | exception Unix.Unix_error (Unix.EINTR, _, _) -> fill need
        | [], _, _ -> `Timeout
        | _ -> (
          match Unix.read fd chunk 0 (Bytes.length chunk) with
          | 0 -> `Eof
          | n ->
            Buffer.add_subbytes buf chunk 0 n;
            fill need
          | exception Unix.Unix_error (Unix.EINTR, _, _) -> fill need)
  in
  match fill 4 with
  | `Timeout -> Timed_out
  | `Eof -> Eof
  | `Ok -> (
    let b i = Char.code (Buffer.nth buf i) in
    let len = (b 0 lsl 24) lor (b 1 lsl 16) lor (b 2 lsl 8) lor b 3 in
    if len > frame_cap then
      Garbage (Printf.sprintf "result frame length %d exceeds the cap" len)
    else
      match fill (4 + len) with
      | `Timeout -> Timed_out
      | `Eof -> Eof
      | `Ok -> Frame (Buffer.sub buf 4 len))

let rec waitpid_retry pid =
  match Unix.waitpid [] pid with
  | r -> r
  | exception Unix.Unix_error (Unix.EINTR, _, _) -> waitpid_retry pid

let classify ~limits outcome status =
  match (outcome, status) with
  | Timed_out, _ ->
    Error
      ( Core.Error.Crash_watchdog,
        Printf.sprintf "no result within the %.3fs wall-clock watchdog"
          limits.wall_seconds )
  | _, Unix.WSIGNALED s when s = Sys.sigxcpu ->
    Error
      ( Core.Error.Crash_cpu,
        Printf.sprintf "killed by SIGXCPU (RLIMIT_CPU %s)"
          (match limits.cpu_seconds with
          | Some c -> Printf.sprintf "%ds" c
          | None -> "inherited") )
  | Frame payload, Unix.WEXITED 0 -> (
    match Json.parse ~max_bytes:frame_cap payload with
    | j -> Ok j
    | exception Json.Parse_error msg ->
      Error (Core.Error.Crash_protocol, "unparseable result frame: " ^ msg))
  | _, Unix.WSIGNALED s ->
    let detail =
      "killed by "
      ^ Core.Error.signal_name s
      ^
      if s = Sys.sigkill then " (chaos kill, kernel OOM killer, or external)"
      else ""
    in
    Error (Core.Error.Crash_signal s, detail)
  | (Eof | Garbage _), Unix.WEXITED 0 ->
    let detail =
      match outcome with
      | Garbage msg -> msg
      | _ -> "pipe closed before a complete result frame (half-written)"
    in
    Error (Core.Error.Crash_protocol, detail)
  | _, Unix.WEXITED c ->
    Error
      ( Core.Error.Crash_exit c,
        Printf.sprintf "worker exited with code %d before answering" c )
  | _, Unix.WSTOPPED s ->
    (* We never pass WUNTRACED, so this is unreachable; classify anyway
       rather than raising inside the boundary. *)
    Error (Core.Error.Crash_signal s, "worker stopped unexpectedly")

let execute ~limits ~id compute =
  match Unix.pipe ~cloexec:true () with
  | exception e ->
    Error
      ( Core.Error.Crash_exit (-1),
        "could not create the result pipe: " ^ Printexc.to_string e )
  | pipe_r, pipe_w -> (
    match Unix.fork () with
    | exception e ->
      (try Unix.close pipe_r with _ -> ());
      (try Unix.close pipe_w with _ -> ());
      Error
        ( Core.Error.Crash_exit (-1),
          "could not fork a worker: " ^ Printexc.to_string e )
    | 0 ->
      (try Unix.close pipe_r with _ -> ());
      run_child ~limits ~id ~pipe_w compute
    | pid ->
      (try Unix.close pipe_w with _ -> ());
      (* The worker chaos site: a firing draw SIGKILLs the fresh child,
         simulating an OOM kill or machine fault at the worst moment. *)
      if Fault.fires Fault.Worker then (try Unix.kill pid Sys.sigkill with _ -> ());
      let deadline = Unix.gettimeofday () +. limits.wall_seconds in
      let outcome = read_result pipe_r ~deadline in
      (match outcome with
      | Timed_out | Garbage _ -> (
        try Unix.kill pid Sys.sigkill with _ -> ())
      | Frame _ | Eof -> ());
      (try Unix.close pipe_r with _ -> ());
      let _, status = waitpid_retry pid in
      classify ~limits outcome status)

(* ------------------------------------------------------------------ *)
(* The supervised pool                                                  *)
(* ------------------------------------------------------------------ *)

type pool = {
  limits : limits;
  p_retry_nodes : int;
  lock : Mutex.t;
  mutable live : int;
  mutable spawned : int;
  mutable completed : int;
  mutable retries : int;
  mutable dumps : int;
  mutable c_signal : int;
  mutable c_oom : int;
  mutable c_cpu : int;
  mutable c_watchdog : int;
  mutable c_protocol : int;
  mutable c_exit : int;
}

let create_pool ?(limits = default_limits) ?(retry_nodes = 20_000) () =
  {
    limits;
    p_retry_nodes = max 1 retry_nodes;
    lock = Mutex.create ();
    live = 0;
    spawned = 0;
    completed = 0;
    retries = 0;
    dumps = 0;
    c_signal = 0;
    c_oom = 0;
    c_cpu = 0;
    c_watchdog = 0;
    c_protocol = 0;
    c_exit = 0;
  }

let pool_limits p = p.limits

let retry_nodes p = p.p_retry_nodes

let with_lock p f =
  Mutex.lock p.lock;
  Fun.protect ~finally:(fun () -> Mutex.unlock p.lock) f

type stats = {
  live : int;
  spawned : int;
  completed : int;
  retries : int;
  dumps : int;
  crashes_total : int;
  crashes_signal : int;
  crashes_oom : int;
  crashes_cpu : int;
  crashes_watchdog : int;
  crashes_protocol : int;
  crashes_exit : int;
}

let stats p =
  with_lock p (fun () ->
      {
        live = p.live;
        spawned = p.spawned;
        completed = p.completed;
        retries = p.retries;
        dumps = p.dumps;
        crashes_total =
          p.c_signal + p.c_oom + p.c_cpu + p.c_watchdog + p.c_protocol
          + p.c_exit;
        crashes_signal = p.c_signal;
        crashes_oom = p.c_oom;
        crashes_cpu = p.c_cpu;
        crashes_watchdog = p.c_watchdog;
        crashes_protocol = p.c_protocol;
        crashes_exit = p.c_exit;
      })

let note_crash p crash =
  with_lock p (fun () ->
      match crash with
      | Core.Error.Crash_signal _ -> p.c_signal <- p.c_signal + 1
      | Core.Error.Crash_oom -> p.c_oom <- p.c_oom + 1
      | Core.Error.Crash_cpu -> p.c_cpu <- p.c_cpu + 1
      | Core.Error.Crash_watchdog -> p.c_watchdog <- p.c_watchdog + 1
      | Core.Error.Crash_protocol -> p.c_protocol <- p.c_protocol + 1
      | Core.Error.Crash_exit _ -> p.c_exit <- p.c_exit + 1);
  Telemetry.count
    ("serve.worker.crash." ^ Core.Error.crash_class_name crash)
    1

(* A child that detects its own crash condition (Out_of_memory under the
   rlimit ceiling) answers a typed worker_crash frame rather than dying;
   fold that into the same crash path as a real death so retry, dumps
   and counters treat both alike.  A compute answering for several
   requests returns a [Json.List] of their responses, and one member's
   crash is the whole worker's. *)
let crash_of_response j =
  let crash_of j =
    match Json.member "error" j with
    | Some (Json.String "worker_crash") ->
      let crash =
        match Json.string_member "crash" j with
        | Some name -> Core.Error.crash_class_of_name name
        | None -> None
      in
      let detail =
        Option.value
          (Json.string_member "message" j)
          ~default:"worker-reported crash"
      in
      Some (Option.value crash ~default:Core.Error.Crash_oom, detail)
    | _ -> None
  in
  match j with Json.List items -> List.find_map crash_of items | j -> crash_of j

let attempt p ~limits ~id compute =
  with_lock p (fun () ->
      p.spawned <- p.spawned + 1;
      p.live <- p.live + 1);
  Telemetry.count "serve.worker.spawn" 1;
  let result =
    Fun.protect
      ~finally:(fun () -> with_lock p (fun () -> p.live <- p.live - 1))
      (fun () -> execute ~limits ~id compute)
  in
  match result with
  | Ok j -> (
    match crash_of_response j with
    | Some (crash, detail) -> Error (crash, detail)
    | None -> Ok j)
  | Error _ as e -> e

let supervise p ~id ~dump compute =
  match attempt p ~limits:p.limits ~id (fun () -> compute ~degraded:false) with
  | Ok j ->
    with_lock p (fun () -> p.completed <- p.completed + 1);
    j
  | Error (crash1, detail1) -> (
    note_crash p crash1;
    with_lock p (fun () -> p.retries <- p.retries + 1);
    Telemetry.count "serve.worker.retry" 1;
    match
      attempt p ~limits:(degraded_limits p.limits) ~id (fun () ->
          compute ~degraded:true)
    with
    | Ok j ->
      with_lock p (fun () -> p.completed <- p.completed + 1);
      j
    | Error (crash2, detail2) ->
      note_crash p crash2;
      let detail =
        if detail1 = detail2 then detail2
        else Printf.sprintf "%s (first attempt: %s)" detail2 detail1
      in
      let path =
        match dump ~crash:crash2 ~detail ~attempts:2 with
        | p -> p
        | exception _ -> None
      in
      (match path with
      | Some _ ->
        with_lock p (fun () -> p.dumps <- p.dumps + 1);
        Telemetry.count "serve.worker.dump" 1
      | None -> ());
      let response =
        Protocol.error ~id
          (Core.Error.Worker_crash { crash = crash2; attempts = 2; detail })
      in
      (match (response, path) with
      | Json.Obj fields, Some path ->
        Json.Obj (fields @ [ ("dump", Json.String path) ])
      | _ -> response))

(* ------------------------------------------------------------------ *)
(* The synthetic crasher                                                *)
(* ------------------------------------------------------------------ *)

let test_abort_hook a =
  match Sys.getenv_opt "CQCSP_TEST_ABORT" with
  | None | Some "" -> ()
  | Some spec -> (
    match String.split_on_char ':' spec with
    | [ action; rel ] ->
      let armed =
        match Relational.Structure.relation a rel with
        | r -> not (Relational.Relation.is_empty r)
        | exception Not_found -> false
      in
      if armed then begin
        match action with
        | "segv" -> Unix.kill (Unix.getpid ()) Sys.sigsegv
        | "abrt" -> Unix.kill (Unix.getpid ()) Sys.sigabrt
        | "kill" -> Unix.kill (Unix.getpid ()) Sys.sigkill
        | "exit" -> Unix._exit 3
        | "spin" ->
          let rec loop n = loop (Sys.opaque_identity (n + 1)) in
          ignore (loop 0)
        | _ -> ()
      end
    | _ -> ())
