type exhausted_reason = Node_limit | Deadline | Cancelled

let reason_to_string = function
  | Node_limit -> "node limit"
  | Deadline -> "deadline"
  | Cancelled -> "cancelled"

let pp_reason ppf r = Format.pp_print_string ppf (reason_to_string r)

exception Exhausted of exhausted_reason

type t = {
  max_nodes : int;  (* [max_int] means no limit *)
  deadline : float;  (* absolute [Unix.gettimeofday] time; [infinity] means none *)
  cancel : bool ref option;
  parent : t option;
  mutable nodes : int;
}

let no_limit = max_int

let unlimited =
  { max_nodes = no_limit; deadline = infinity; cancel = None; parent = None; nodes = 0 }

let make ?max_nodes ?timeout ?cancel ?parent () =
  let max_nodes =
    match max_nodes with
    | None -> no_limit
    | Some n -> if n < 0 then invalid_arg "Budget.create: max_nodes < 0" else n
  in
  let deadline =
    match timeout with
    | None -> infinity
    | Some s ->
      if s < 0. then invalid_arg "Budget.create: timeout < 0"
      else Unix.gettimeofday () +. s
  in
  { max_nodes; deadline; cancel; parent; nodes = 0 }

let create ?max_nodes ?timeout ?cancel () = make ?max_nodes ?timeout ?cancel ()

let is_unlimited t =
  t.max_nodes = no_limit && t.deadline = infinity && t.cancel = None
  && t.parent = None

let spent t = t.nodes

let remaining_nodes t =
  if t.max_nodes = no_limit then None else Some (max 0 (t.max_nodes - t.nodes))

let cancelled t = match t.cancel with Some flag -> !flag | None -> false

(* --- Strided clock -----------------------------------------------------

   [Unix.gettimeofday] is a few hundred nanoseconds of vtime per call; on
   propagation hot paths ticked per-tuple that used to dominate the
   deadline poll.  The tick path therefore reads a process-wide cached
   clock that performs a real read only every [stride] probes, where
   [stride] self-calibrates so that consecutive real reads are about
   [target_stride_s] of wall clock apart.  The cached value is always
   [<=] the real time, so a deadline can fire late by at most one stride
   (~2ms, far under the documented 10ms slack) but never early.

   The cache and its calibration live in domain-local storage: each
   domain calibrates against its own probe rate, and no probe ever
   writes memory another domain reads, so ticking budgets concurrently
   on several domains is race-free.  Only the diagnostic read counter
   is cross-domain, as a relaxed [Atomic]. *)

let target_stride_s = 0.002
let max_stride = 16384

type clock = {
  mutable stride : int;
  mutable probes_left : int;
  mutable cached_now : float;
  mutable last_real_read : float;
}

let fresh_clock () =
  { stride = 1; probes_left = 0; cached_now = neg_infinity; last_real_read = neg_infinity }

let clock_key = Domain.DLS.new_key fresh_clock

let real_reads = Atomic.make 0

let clock_reads () = Atomic.get real_reads

let reset_clock_stats () =
  Atomic.set real_reads 0;
  let c = Domain.DLS.get clock_key in
  c.stride <- 1;
  c.probes_left <- 0;
  c.cached_now <- neg_infinity;
  c.last_real_read <- neg_infinity

let read_clock c =
  let now = Unix.gettimeofday () in
  Atomic.incr real_reads;
  (* Recalibrate: during the stride just consumed we made [c.stride]
     probes over [now - last] seconds; scale toward [target_stride_s]
     per stride, growing at most 4x per step so one long pause between
     probes cannot blow the stride up past what the probe rate supports. *)
  let elapsed = now -. c.last_real_read in
  if c.last_real_read > neg_infinity && elapsed > 0. then begin
    let ideal = float_of_int c.stride *. target_stride_s /. elapsed in
    let next = int_of_float (Float.min ideal (float_of_int (c.stride * 4))) in
    c.stride <- max 1 (min max_stride next)
  end;
  c.last_real_read <- now;
  c.cached_now <- now;
  c.probes_left <- c.stride;
  now

let strided_now () =
  let c = Domain.DLS.get clock_key in
  if c.probes_left <= 0 then read_clock c
  else begin
    c.probes_left <- c.probes_left - 1;
    c.cached_now
  end

let exact_now () =
  let now = Unix.gettimeofday () in
  Atomic.incr real_reads;
  (* Refresh the cache for free: an exact read is also a real read. *)
  (Domain.DLS.get clock_key).cached_now <- now;
  now

let past_deadline t = t.deadline < infinity && exact_now () > t.deadline

let past_deadline_strided t = t.deadline < infinity && strided_now () > t.deadline

let rec status t =
  if cancelled t then Some Cancelled
  else if past_deadline t then Some Deadline
  else if t.nodes >= t.max_nodes then Some Node_limit
  else match t.parent with Some p -> status p | None -> None

let check t = match status t with Some r -> raise (Exhausted r) | None -> ()

(* Poll the clock and the cancellation flag only every [poll_mask + 1]
   ticks; the node-limit comparison runs on every tick. *)
let poll_mask = 255

let rec tick t =
  t.nodes <- t.nodes + 1;
  if t.nodes > t.max_nodes && t.max_nodes <> no_limit then begin
    if cancelled t then raise (Exhausted Cancelled)
    else if past_deadline t then raise (Exhausted Deadline)
    else raise (Exhausted Node_limit)
  end;
  if t.nodes land poll_mask = 0 then begin
    if cancelled t then raise (Exhausted Cancelled);
    if past_deadline_strided t then raise (Exhausted Deadline)
  end;
  match t.parent with Some p -> tick p | None -> ()

let slice parent ?max_nodes ?timeout () =
  if is_unlimited parent then make ?max_nodes ?timeout ()
  else begin
    let max_nodes =
      match (max_nodes, remaining_nodes parent) with
      | None, r -> r
      | Some n, None -> Some n
      | Some n, Some r -> Some (min n r)
    in
    let child = make ?max_nodes ?timeout ?cancel:parent.cancel ~parent () in
    (* The child's deadline must not outlive the parent's. *)
    if parent.deadline < child.deadline then
      { child with deadline = parent.deadline }
    else child
  end

(* A [slice] ticks its parent on every tick — a data race if the slices
   run on different domains.  A [racer] instead copies the parent's
   remaining allowance and absolute deadline into an independent budget
   owned by one domain, polls the race's own cancellation flag, and
   reaches the parent's *user* cancellation flag through a node-less
   upstream stub (each racer gets its own stub, so nothing mutable is
   shared).  Spent nodes are merged back with {!charge} once the racer
   is done. *)
let racer parent ~cancel =
  let upstream =
    match parent.cancel with
    | None -> None
    | Some _ ->
      Some
        {
          max_nodes = no_limit;
          deadline = infinity;
          cancel = parent.cancel;
          parent = None;
          nodes = 0;
        }
  in
  {
    max_nodes =
      (match remaining_nodes parent with None -> no_limit | Some r -> r);
    deadline = parent.deadline;
    cancel = Some cancel;
    parent = upstream;
    nodes = 0;
  }

let rec charge t n =
  if n > 0 then begin
    t.nodes <- t.nodes + n;
    match t.parent with Some p -> charge p n | None -> ()
  end
