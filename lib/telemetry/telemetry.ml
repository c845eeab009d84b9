type value = Wire.Json.t

type record =
  | Span of {
      name : string;
      elapsed_s : float;
      fields : (string * value) list;
      counters : (string * int) list;
    }
  | Counter of { name : string; total : int }
  | Timer of { name : string; seconds : float; count : int }

let json_of_record : record -> Wire.Json.t =
  let open Wire.Json in
  function
  | Span { name; elapsed_s; fields; counters } ->
    Obj
      [
        ("type", String "span");
        ("name", String name);
        ("elapsed_s", Float elapsed_s);
        ("fields", Obj fields);
        ("counters", Obj (List.map (fun (k, n) -> (k, Int n)) counters));
      ]
  | Counter { name; total } ->
    Obj [ ("type", String "counter"); ("name", String name); ("total", Int total) ]
  | Timer { name; seconds; count } ->
    Obj
      [
        ("type", String "timer");
        ("name", String name);
        ("seconds", Float seconds);
        ("count", Int count);
      ]

(* ------------------------------------------------------------------ *)
(* Sinks                                                                *)
(* ------------------------------------------------------------------ *)

module Sink = struct
  type t = { emit : record -> unit; flush : unit -> unit }

  let memory () =
    let records = ref [] in
    ( { emit = (fun r -> records := r :: !records); flush = (fun () -> ()) },
      fun () -> List.rev !records )

  let jsonl oc =
    {
      emit =
        (fun r ->
          output_string oc (Wire.Json.to_string (json_of_record r));
          output_char oc '\n');
      flush = (fun () -> flush oc);
    }

  let tee a b =
    {
      emit =
        (fun r ->
          a.emit r;
          b.emit r);
      flush =
        (fun () ->
          a.flush ();
          b.flush ());
    }
end

(* ------------------------------------------------------------------ *)
(* Global state                                                         *)
(* ------------------------------------------------------------------ *)

type span = {
  sname : string;
  sstart : float;
  sdeltas : (string, int) Hashtbl.t;  (* counter increments while open *)
}

let sink : Sink.t option ref = ref None

(* The span stack is domain-local: spans opened on a domain nest with
   (and roll up into) that domain's own enclosing spans, so parallel
   phases on worker domains attribute their counter deltas to their own
   spans rather than racing for one global stack.  The global counter
   totals below still see every increment — merged under the lock at
   count/close time. *)
let stack_key : span list ref Domain.DLS.key = Domain.DLS.new_key (fun () -> ref [])

let stack () = Domain.DLS.get stack_key

let counters : (string, int ref) Hashtbl.t = Hashtbl.create 64

let timers : (string, (float ref * int ref)) Hashtbl.t = Hashtbl.create 16

(* The tables and sink emissions are process-global; the serve daemon
   bumps them from concurrent request threads and parallel phases bump
   them from worker domains.  Every mutation and emission runs under
   this lock.  The telemetry-off fast path (no sink installed) never
   touches the lock, so disabled overhead stays the single branch
   measured by bench E18. *)
let lock = Mutex.create ()

let locked f =
  Mutex.lock lock;
  Fun.protect ~finally:(fun () -> Mutex.unlock lock) f

let enabled () = !sink <> None

let set_sink s =
  locked (fun () ->
      sink := s;
      stack () := [])

(* In a child forked from a multithreaded parent, [lock] may have been
   held by a thread that does not exist in the child: taking it would
   deadlock forever.  Writing the sink ref directly (no lock — the child
   is single-threaded by construction) routes every subsequent
   instrumentation call through the lock-free disabled fast path. *)
let detach_after_fork () =
  sink := None;
  stack () := []

let reset () =
  locked (fun () ->
      Hashtbl.reset counters;
      Hashtbl.reset timers;
      stack () := [])

(* ------------------------------------------------------------------ *)
(* Counters                                                             *)
(* ------------------------------------------------------------------ *)

let count name n =
  match !sink with
  | None -> ()
  | Some _ ->
    locked (fun () ->
        (match Hashtbl.find_opt counters name with
        | Some total -> total := !total + n
        | None -> Hashtbl.replace counters name (ref n));
        match !(stack ()) with
        | [] -> ()
        | span :: _ ->
          Hashtbl.replace span.sdeltas name
            (n + Option.value ~default:0 (Hashtbl.find_opt span.sdeltas name)))

let counter_total name =
  locked (fun () ->
      match Hashtbl.find_opt counters name with Some total -> !total | None -> 0)

let counter_totals () =
  locked (fun () ->
      Hashtbl.fold (fun name total acc -> (name, !total) :: acc) counters [])
  |> List.sort compare

(* ------------------------------------------------------------------ *)
(* Timers                                                               *)
(* ------------------------------------------------------------------ *)

let add_timing name seconds =
  locked (fun () ->
      match Hashtbl.find_opt timers name with
      | Some (total, invocations) ->
        total := !total +. seconds;
        incr invocations
      | None -> Hashtbl.replace timers name (ref seconds, ref 1))

let time name f =
  match !sink with
  | None -> f ()
  | Some _ ->
    let t0 = Unix.gettimeofday () in
    Fun.protect ~finally:(fun () -> add_timing name (Unix.gettimeofday () -. t0)) f

let timer_totals () =
  locked (fun () ->
      Hashtbl.fold
        (fun name (total, invocations) acc -> (name, (!total, !invocations)) :: acc)
        timers [])
  |> List.sort compare

(* ------------------------------------------------------------------ *)
(* Spans                                                                *)
(* ------------------------------------------------------------------ *)

let begin_span name =
  match !sink with
  | None -> None
  | Some _ ->
    let span =
      { sname = name; sstart = Unix.gettimeofday (); sdeltas = Hashtbl.create 8 }
    in
    let stack = stack () in
    stack := span :: !stack;
    Some span

let deltas_sorted span =
  Hashtbl.fold (fun name n acc -> (name, n) :: acc) span.sdeltas [] |> List.sort compare

let end_span ?(fields = []) handle =
  match (handle, !sink) with
  | None, _ | _, None -> []
  | Some span, Some s ->
    let stack = stack () in
    locked @@ fun () ->
    if not (List.memq span !stack) then []
    else begin
      (* Discard inner spans an exception unwound past. *)
      let rec pop = function
        | inner :: rest when inner != span -> pop rest
        | _ :: rest -> rest
        | [] -> []
      in
      stack := pop !stack;
      let counters = deltas_sorted span in
      (* Roll the increments up into the enclosing span, so outer spans
         account for the work of their phases. *)
      (match !stack with
      | parent :: _ ->
        List.iter
          (fun (name, n) ->
            Hashtbl.replace parent.sdeltas name
              (n + Option.value ~default:0 (Hashtbl.find_opt parent.sdeltas name)))
          counters
      | [] -> ());
      s.emit
        (Span
           {
             name = span.sname;
             elapsed_s = Unix.gettimeofday () -. span.sstart;
             fields;
             counters;
           });
      counters
    end

let with_span name ?fields f =
  match !sink with
  | None -> f ()
  | Some _ ->
    let span = begin_span name in
    Fun.protect ~finally:(fun () -> ignore (end_span ?fields span)) f

(* ------------------------------------------------------------------ *)
(* Lifecycle                                                            *)
(* ------------------------------------------------------------------ *)

let flush () =
  match !sink with
  | None -> ()
  | Some s ->
    let counter_rows = counter_totals () and timer_rows = timer_totals () in
    locked (fun () ->
        List.iter
          (fun (name, total) -> s.emit (Counter { name; total }))
          counter_rows;
        List.iter
          (fun (name, (seconds, count)) -> s.emit (Timer { name; seconds; count }))
          timer_rows;
        s.flush ())
