(* Driving a `cqc serve --socket` daemon: start it, wait for it to be
   ready, talk JSONL over one connection, read its /proc counters, stop
   it. *)

module J = Serve.Json

let cqc = "_build/default/bin/cqc.exe"

let now = Unix.gettimeofday

(* ------------------------------------------------------------------ *)
(* Buffered line reading                                                *)
(* ------------------------------------------------------------------ *)

type reader = { fd : Unix.file_descr; chunk : Bytes.t; mutable pos : int; mutable len : int }

let reader fd = { fd; chunk = Bytes.create 65536; pos = 0; len = 0 }

let read_line r =
  let line = Buffer.create 256 in
  let rec go () =
    if r.pos >= r.len then begin
      let n =
        try Unix.read r.fd r.chunk 0 (Bytes.length r.chunk)
        with Unix.Unix_error (Unix.EINTR, _, _) -> -1
      in
      if n = 0 then raise End_of_file;
      if n > 0 then begin
        r.pos <- 0;
        r.len <- n
      end;
      go ()
    end
    else
      match Bytes.index_from_opt r.chunk r.pos '\n' with
      | Some i when i < r.len ->
        Buffer.add_subbytes line r.chunk r.pos (i - r.pos);
        r.pos <- i + 1;
        Buffer.contents line
      | _ ->
        Buffer.add_subbytes line r.chunk r.pos (r.len - r.pos);
        r.pos <- r.len;
        go ()
  in
  go ()

let rec write_all fd s off len =
  if len > 0 then
    match Unix.write_substring fd s off len with
    | n -> write_all fd s (off + n) (len - n)
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> write_all fd s off len

let send fd line =
  let s = line ^ "\n" in
  write_all fd s 0 (String.length s)

(* ------------------------------------------------------------------ *)
(* The daemon process                                                   *)
(* ------------------------------------------------------------------ *)

type t = {
  pid : int;
  err : reader;  (** The daemon's stderr, kept open so it never blocks. *)
  conn : Unix.file_descr;
  replies : reader;
}

let request d line =
  send d.conn line;
  J.parse (read_line d.replies)

(* Spawn the daemon and return once it answers a ping.  Readiness comes
   from the daemon itself: its stderr "listening" line (a blocking read,
   no polling).  The line is printed before the warm manifest is loaded
   and the socket bound, so the connect that follows is retried every
   100 µs until the socket accepts. *)
let start ~socket ~args =
  let err_r, err_w = Unix.pipe ~cloexec:true () in
  let null = Unix.openfile "/dev/null" [ Unix.O_RDWR; Unix.O_CLOEXEC ] 0 in
  let argv = Array.of_list (cqc :: "serve" :: "--socket" :: socket :: args) in
  let pid = Unix.create_process cqc argv null null err_w in
  Unix.close err_w;
  Unix.close null;
  let err = reader err_r in
  let rec await_listening () =
    match read_line err with
    | line ->
      let key = "listening" in
      let n = String.length key in
      let rec has i =
        i + n <= String.length line && (String.sub line i n = key || has (i + 1))
      in
      if not (has 0) then await_listening ()
    | exception End_of_file -> failwith "cqc serve exited before listening"
  in
  await_listening ();
  let deadline = now () +. 30. in
  let rec connect () =
    let s = Unix.socket ~cloexec:true Unix.PF_UNIX Unix.SOCK_STREAM 0 in
    match Unix.connect s (Unix.ADDR_UNIX socket) with
    | () -> s
    | exception Unix.Unix_error ((Unix.ENOENT | Unix.ECONNREFUSED), _, _)
      when now () < deadline ->
      Unix.close s;
      Unix.sleepf 0.0001;
      connect ()
  in
  let conn = connect () in
  (* A request that never completes fails the run instead of hanging it. *)
  Unix.setsockopt_float conn Unix.SO_RCVTIMEO 60.;
  let d = { pid; err; conn; replies = reader conn } in
  (match J.string_member "status" (request d {|{"id":0,"op":"ping"}|}) with
  | Some "ok" -> ()
  | _ -> failwith "cqc serve did not answer ping");
  d

(* SIGTERM drains and exits; a daemon that outlives 10 s is killed. *)
let stop d =
  (try Unix.close d.conn with Unix.Unix_error _ -> ());
  (try Unix.kill d.pid Sys.sigterm with Unix.Unix_error _ -> ());
  let deadline = now () +. 10. in
  let rec wait () =
    match Unix.waitpid [ Unix.WNOHANG ] d.pid with
    | 0, _ when now () < deadline ->
      Unix.sleepf 0.001;
      wait ()
    | 0, _ ->
      (try Unix.kill d.pid Sys.sigkill with Unix.Unix_error _ -> ());
      ignore (Unix.waitpid [] d.pid)
    | _ -> ()
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> wait ()
  in
  wait ();
  Unix.close d.err.fd

(* ------------------------------------------------------------------ *)
(* /proc                                                                *)
(* ------------------------------------------------------------------ *)

(* utime + stime of the daemon and of its reaped children, in ms
   (USER_HZ is 100 on Linux). *)
let cpu_ms pid =
  let text = In_channel.with_open_bin (Printf.sprintf "/proc/%d/stat" pid) In_channel.input_all in
  (* Fields after the parenthesised command name, which may hold spaces. *)
  let rest = String.sub text (String.rindex text ')' + 2) (String.length text - String.rindex text ')' - 2) in
  let f = Array.of_list (String.split_on_char ' ' rest) in
  (* rest.(0) is field 3 (state); utime..cstime are fields 14..17. *)
  let field k = float_of_string f.(k - 3) in
  10. *. (field 14 +. field 15 +. field 16 +. field 17)

let rss_hwm_mb pid =
  let lines =
    In_channel.with_open_bin (Printf.sprintf "/proc/%d/status" pid) In_channel.input_lines
  in
  match List.find_opt (fun l -> String.starts_with ~prefix:"VmHWM:" l) lines with
  | Some l ->
    Scanf.sscanf (String.sub l 6 (String.length l - 6)) " %d kB" (fun kb -> float_of_int kb /. 1024.)
  | None -> failwith "no VmHWM in /proc status"

(* ------------------------------------------------------------------ *)
(* The stats op                                                         *)
(* ------------------------------------------------------------------ *)

type stats = {
  hits : int;
  misses : int;
  evictions : int;
  spawned : int;
  completed : int;
  crashes : int;
  routes : (string * int) list;  (** Responses per route (latency histogram counts). *)
}

let stats d =
  let j = request d {|{"id":0,"op":"stats"}|} in
  let path keys =
    List.fold_left (fun acc k -> Option.bind acc (J.member k)) (Some j) keys
  in
  let int keys = match path keys with Some (J.Int n) -> n | _ -> 0 in
  let routes =
    match path [ "latency_ms" ] with
    | Some (J.Obj rs) ->
      List.map (fun (r, v) -> (r, Option.value ~default:0 (J.int_member "count" v))) rs
    | _ -> []
  in
  {
    hits = int [ "cache"; "hits" ];
    misses = int [ "cache"; "misses" ];
    evictions = int [ "cache"; "evictions" ];
    spawned = int [ "workers"; "spawned" ];
    completed = int [ "workers"; "completed" ];
    crashes = int [ "workers"; "crashes"; "total" ];
    routes;
  }

let diff a b =
  {
    hits = b.hits - a.hits;
    misses = b.misses - a.misses;
    evictions = b.evictions - a.evictions;
    spawned = b.spawned - a.spawned;
    completed = b.completed - a.completed;
    crashes = b.crashes - a.crashes;
    routes =
      List.filter_map
        (fun (r, n) ->
          let before = Option.value ~default:0 (List.assoc_opt r a.routes) in
          if n > before then Some (r, n - before) else None)
        b.routes;
  }
