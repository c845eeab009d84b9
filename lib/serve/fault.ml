type site = Parse | Admit | Cache_build | Solve | Respond | Worker

let all_sites = [ Parse; Admit; Cache_build; Solve; Respond; Worker ]

let site_name = function
  | Parse -> "parse"
  | Admit -> "admit"
  | Cache_build -> "cache"
  | Solve -> "solve"
  | Respond -> "respond"
  | Worker -> "worker"

let site_of_name = function
  | "parse" -> Some Parse
  | "admit" -> Some Admit
  | "cache" -> Some Cache_build
  | "solve" -> Some Solve
  | "respond" -> Some Respond
  | "worker" -> Some Worker
  | _ -> None

exception Injected of site

type arming = {
  target : site option;  (* [None] covers every site *)
  rate : float;
  mutable state : int64;  (* splitmix64 state, advanced per draw *)
}

(* A ref so a freshly forked child can install a new, unheld mutex: the
   inherited one may have been locked by a parent thread that does not
   exist in the child, and taking it would deadlock forever. *)
let lock = ref (Mutex.create ())

let armings : arming list ref = ref []

let counts : (site * int ref) list =
  List.map (fun s -> (s, ref 0)) all_sites

let with_lock f =
  let m = !lock in
  Mutex.lock m;
  Fun.protect ~finally:(fun () -> Mutex.unlock m) f

let relock_after_fork () = lock := Mutex.create ()

(* splitmix64: tiny, seedable, and good enough for Bernoulli draws; the
   stdlib Random is shared global state we must not perturb. *)
let splitmix64 state =
  let open Int64 in
  let z = add state 0x9E3779B97F4A7C15L in
  let z' = mul (logxor z (shift_right_logical z 30)) 0xBF58476D1CE4E5B9L in
  let z'' = mul (logxor z' (shift_right_logical z' 27)) 0x94D049BB133111EBL in
  (z, logxor z'' (shift_right_logical z'' 31))

let draw arming =
  let state, bits = splitmix64 arming.state in
  arming.state <- state;
  (* 53 uniform mantissa bits -> [0, 1). *)
  let u =
    Int64.to_float (Int64.shift_right_logical bits 11) /. 9007199254740992.0
  in
  u < arming.rate

let parse_triple spec =
  match String.split_on_char ':' (String.trim spec) with
  | [ site; seed; rate ] ->
    let target =
      if site = "all" then None
      else
        match site_of_name site with
        | Some s -> Some s
        | None ->
          invalid_arg
            (Printf.sprintf
               "fault spec %S: unknown site %S (expected parse, admit, cache, \
                solve, respond, worker or all)"
               spec site)
    in
    let seed =
      match int_of_string_opt seed with
      | Some n when n >= 0 -> n
      | _ -> invalid_arg (Printf.sprintf "fault spec %S: bad seed %S" spec seed)
    in
    let rate =
      match float_of_string_opt rate with
      | Some r when r >= 0. && r <= 1. -> r
      | _ ->
        invalid_arg
          (Printf.sprintf "fault spec %S: rate %S not in [0, 1]" spec rate)
    in
    { target; rate; state = Int64.of_int seed }
  | _ ->
    invalid_arg
      (Printf.sprintf "fault spec %S: expected site:seed:rate" spec)

let disarm () =
  with_lock (fun () ->
      armings := [];
      List.iter (fun (_, c) -> c := 0) counts)

let arm spec =
  let parsed =
    String.split_on_char ',' spec
    |> List.filter (fun s -> String.trim s <> "")
    |> List.map parse_triple
  in
  if parsed = [] then invalid_arg "fault spec is empty";
  with_lock (fun () ->
      armings := parsed;
      List.iter (fun (_, c) -> c := 0) counts)

let arm_from_env () =
  match Sys.getenv_opt "CQCSP_FAULT" with
  | None | Some "" -> disarm ()
  | Some spec -> arm spec

let fires site =
  let fire =
    with_lock (fun () ->
        List.exists
          (fun a ->
            (match a.target with None -> true | Some s -> s = site) && draw a)
          !armings
        && begin
             incr (List.assq site counts);
             true
           end)
  in
  if fire then Telemetry.count "serve.fault.injected" 1;
  fire

let trip site = if fires site then raise (Injected site)

let injected_count () =
  with_lock (fun () -> List.fold_left (fun acc (_, c) -> acc + !c) 0 counts)

let injected_per_site () =
  with_lock (fun () ->
      List.filter_map
        (fun (s, c) -> if !c > 0 then Some (site_name s, !c) else None)
        counts)
  |> List.sort compare
