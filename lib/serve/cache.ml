open Relational

type entry = {
  structure : Structure.t;
  canonical : string;  (* full key, compared on hit to survive collisions *)
  core : Preprocess.retraction;
  core_canonical : string;
      (* canonical text of the cached core, re-derived and compared on
         hit: a second guard against fingerprint collisions and against
         any corruption of the interned core *)
  mutable last_used : int;  (* LRU clock stamp *)
}

type lookup =
  | Hit of Structure.t * Preprocess.retraction
  | Miss of Structure.t * Preprocess.retraction
  | Poisoned of string

type template_stats = {
  t_fingerprint : string;
  t_raw_elements : int;
  t_core_elements : int;
}

type stats = {
  hits : int;
  misses : int;
  poisoned : int;
  build_failures : int;
  evictions : int;
  entries : int;
  capacity : int;
  templates : template_stats list;
}

type t = {
  lock : Mutex.t;
  capacity : int;
  preprocess : bool;
  table : (string, entry) Hashtbl.t;
  poison : (string, string) Hashtbl.t;
  mutable clock : int;
  mutable hits : int;
  mutable misses : int;
  mutable poisoned_lookups : int;
  mutable build_failures : int;
  mutable evictions : int;
}

let create ?(preprocess = true) ~capacity () =
  let capacity = max 1 capacity in
  {
    lock = Mutex.create ();
    capacity;
    preprocess;
    table = Hashtbl.create (2 * capacity);
    poison = Hashtbl.create 16;
    clock = 0;
    hits = 0;
    misses = 0;
    poisoned_lookups = 0;
    build_failures = 0;
    evictions = 0;
  }

let with_lock t f =
  Mutex.lock t.lock;
  Fun.protect ~finally:(fun () -> Mutex.unlock t.lock) f

(* FNV-1a 64 over the canonical text: stable across runs (unlike
   Hashtbl.hash seeds a future runtime might randomize) and cheap. *)
let fnv1a64 s =
  let prime = 0x100000001B3L in
  let h = ref 0xCBF29CE484222325L in
  String.iter
    (fun c ->
      h := Int64.logxor !h (Int64.of_int (Char.code c));
      h := Int64.mul !h prime)
    s;
  Printf.sprintf "%016Lx" !h

let canonical_text b = Structure_text.print b

let fingerprint b = fnv1a64 (canonical_text b)

(* The per-template analysis: force every relation's hash index (the
   propagation/semijoin/direct routes all probe them), which the interned
   structure keeps.  A pure warm-up: solving against the interned
   structure afterwards finds the indexes built.  Schaefer classes are
   not kept; a solve computes them from the template. *)
let analyse s =
  List.iter
    (fun (name, _arity) -> ignore (Structure.index s name))
    (Vocabulary.symbols (Structure.vocabulary s))

let build_analysis t b =
  Fault.trip Fault.Cache_build;
  analyse b;
  (* Core the template once at insert/warm time — every request against
     this entry then solves the smaller target.  Warm time can afford a
     deeper retraction search than the solve-time default cap, since it
     amortizes over the entry's whole lifetime. *)
  let core =
    if t.preprocess then
      Preprocess.target_core ~core_nodes:(4 * max 64 (Structure.norm b)) b
    else Preprocess.identity_retraction b
  in
  if Structure.size core.Preprocess.structure < Structure.size b then begin
    Telemetry.count "serve.preprocess.shrunk" 1;
    analyse core.Preprocess.structure
  end;
  core

let evict_lru t =
  let victim =
    Hashtbl.fold
      (fun fp entry acc ->
        match acc with
        | Some (_, best) when best.last_used <= entry.last_used -> acc
        | _ -> Some (fp, entry))
      t.table None
  in
  match victim with
  | Some (fp, _) ->
    Hashtbl.remove t.table fp;
    t.evictions <- t.evictions + 1;
    Telemetry.count "serve.cache.evicted" 1
  | None -> ()

(* Poison marks are bounded too: a flood of distinct failing templates
   must not grow the table without limit.  Wholesale reset is fine — the
   cost of forgetting a mark is one retried build. *)
let max_poison t = 4 * t.capacity

let lookup t b =
  let canonical = canonical_text b in
  let fp = fnv1a64 canonical in
  let decision =
    with_lock t (fun () ->
        t.clock <- t.clock + 1;
        match Hashtbl.find_opt t.poison fp with
        | Some msg ->
          t.poisoned_lookups <- t.poisoned_lookups + 1;
          Telemetry.count "serve.cache.poisoned" 1;
          Poisoned msg
        | None -> (
          match Hashtbl.find_opt t.table fp with
          | Some entry
            when entry.canonical = canonical
                 && Structure_text.print entry.core.Preprocess.structure
                    = entry.core_canonical ->
            entry.last_used <- t.clock;
            t.hits <- t.hits + 1;
            Telemetry.count "serve.cache.hit" 1;
            Hit (entry.structure, entry.core)
          | _ -> (
            (* Absent, a fingerprint collision (the canonical texts
               differ), or a core failing its integrity text: build this
               template's analysis and (re)insert. *)
            match build_analysis t b with
            | core ->
              if
                not (Hashtbl.mem t.table fp)
                && Hashtbl.length t.table >= t.capacity
              then evict_lru t;
              Hashtbl.replace t.table fp
                {
                  structure = b;
                  canonical;
                  core;
                  core_canonical = Structure_text.print core.Preprocess.structure;
                  last_used = t.clock;
                };
              t.misses <- t.misses + 1;
              Telemetry.count "serve.cache.miss" 1;
              Miss (b, core)
            | exception e ->
              let msg =
                match e with
                | Fault.Injected site ->
                  Printf.sprintf "injected fault at site %s"
                    (Fault.site_name site)
                | e -> Printexc.to_string e
              in
              t.build_failures <- t.build_failures + 1;
              if Hashtbl.length t.poison >= max_poison t then
                Hashtbl.reset t.poison;
              Hashtbl.replace t.poison fp msg;
              t.poisoned_lookups <- t.poisoned_lookups + 1;
              Telemetry.count "serve.cache.poisoned" 1;
              Poisoned msg)))
  in
  (decision, fp)

let stats t =
  with_lock t (fun () ->
      let templates =
        Hashtbl.fold
          (fun fp entry acc ->
            {
              t_fingerprint = fp;
              t_raw_elements = Structure.size entry.structure;
              t_core_elements = Structure.size entry.core.Preprocess.structure;
            }
            :: acc)
          t.table []
        |> List.sort (fun x y -> compare x.t_fingerprint y.t_fingerprint)
      in
      {
        hits = t.hits;
        misses = t.misses;
        poisoned = t.poisoned_lookups;
        build_failures = t.build_failures;
        evictions = t.evictions;
        entries = Hashtbl.length t.table;
        capacity = t.capacity;
        templates;
      })

let clear t =
  with_lock t (fun () ->
      Hashtbl.reset t.table;
      Hashtbl.reset t.poison)
