module Tuple_set = Set.Make (struct
  type t = Tuple.t

  let compare = Tuple.compare
end)

(* Per-relation index, built once on demand and cached on the relation
   value.  [by_position.(j)] maps a universe element [v] to the array of
   tuples whose [j]-th entry is [v]; [members] gives O(1) membership.
   Relations are immutable, so a cached index can never go stale — every
   constructor below produces a fresh record with an empty cache slot. *)
module Index = struct
  (* Membership.  When the box [0, base)^arity, with [base] one past the
     largest entry, has at most [dense_cells] cells, one bit per cell,
     addressed by the tuple read as a number in radix [base]; otherwise
     a hash set. *)
  type members =
    | Dense of { base : int; bits : Bytes.t }
    | Hashed of unit Tuple.Table.t

  type t = {
    arity : int;
    tuples : Tuple.t array;  (** all tuples, in {!Tuple.compare} order *)
    by_position : (int, Tuple.t array) Hashtbl.t array;
    members : members;
  }

  let dense_cells = 1 lsl 16

  let tuples ix = ix.tuples

  let matching ix ~pos ~value =
    if pos < 0 || pos >= Array.length ix.by_position then
      invalid_arg "Relation.Index.matching: position out of range";
    match Hashtbl.find_opt ix.by_position.(pos) value with
    | Some a -> a
    | None -> [||]

  let bit bits c = Bytes.get_uint8 bits (c lsr 3) land (1 lsl (c land 7)) <> 0

  (* The cell of [t.(j) ..]: [c] so far, [false] at an entry outside
     [0, base). *)
  let rec dense_mem base bits (t : Tuple.t) j c =
    if j = Array.length t then bit bits c
    else
      let v = t.(j) in
      v >= 0 && v < base && dense_mem base bits t (j + 1) ((c * base) + v)

  let mem ix t =
    match ix.members with
    | Hashed tbl -> Tuple.Table.mem tbl t
    | Dense { base; bits } -> Array.length t = ix.arity && dense_mem base bits t 0 0

  (* [dense_mem] on the image under [map] of [src.(at + j)], [j < len]. *)
  let rec dense_mem_image base bits ~map src ~at ~len j c =
    if j = len then bit bits c
    else
      let v = map.(src.(at + j)) in
      v >= 0 && v < base && dense_mem_image base bits ~map src ~at ~len (j + 1) ((c * base) + v)

  let mem_image ix ~map src ~at ~len =
    len = ix.arity
    &&
    match ix.members with
    | Dense { base; bits } -> dense_mem_image base bits ~map src ~at ~len 0 0
    | Hashed tbl -> Tuple.Table.mem tbl (Array.init len (fun j -> map.(src.(at + j))))

  (* [(hi + 1)^arity] when it is at most [dense_cells]. *)
  let box ~arity ~hi =
    let base = hi + 1 in
    let rec grow cells k =
      if k = arity then Some cells
      else if base > dense_cells / cells then None
      else grow (cells * base) (k + 1)
    in
    if hi >= dense_cells then None else grow 1 0

  let membership arity tuple_array =
    let lo = ref 0 and hi = ref 0 in
    Array.iter (Array.iter (fun v -> lo := Int.min !lo v; hi := Int.max !hi v)) tuple_array;
    match if !lo < 0 then None else box ~arity ~hi:!hi with
    | Some cells ->
      let base = !hi + 1 and bits = Bytes.make ((cells + 7) / 8) '\000' in
      Array.iter
        (fun t ->
          let c = Array.fold_left (fun c v -> (c * base) + v) 0 t in
          Bytes.set_uint8 bits (c lsr 3) (Bytes.get_uint8 bits (c lsr 3) lor (1 lsl (c land 7))))
        tuple_array;
      Dense { base; bits }
    | None ->
      let tbl = Tuple.Table.create (max 16 (Array.length tuple_array)) in
      Array.iter (fun t -> Tuple.Table.replace tbl t ()) tuple_array;
      Hashed tbl

  let build arity tuple_array =
    let by_position =
      Array.init arity (fun _ -> Hashtbl.create (max 16 (Array.length tuple_array)))
    in
    Array.iter
      (fun (t : Tuple.t) ->
        Array.iteri
          (fun j v ->
            Hashtbl.replace by_position.(j) v
              (match Hashtbl.find_opt by_position.(j) v with
              | Some l -> t :: l
              | None -> [ t ]))
          t)
      tuple_array;
    let by_position =
      Array.map
        (fun tbl ->
          let packed = Hashtbl.create (Hashtbl.length tbl) in
          Hashtbl.iter
            (fun v l -> Hashtbl.replace packed v (Array.of_list (List.rev l)))
            tbl;
          packed)
        by_position
    in
    { arity; tuples = tuple_array; by_position; members = membership arity tuple_array }
end

type t = { arity : int; tuples : Tuple_set.t; mutable index : Index.t option }

(* The only constructor: never build a relation with [{ r with ... }] — that
   would copy the mutable cache slot and serve a stale index. *)
let make arity tuples = { arity; tuples; index = None }

let empty arity =
  if arity < 0 then invalid_arg "Relation.empty: negative arity";
  make arity Tuple_set.empty

let index r =
  match r.index with
  | Some ix -> ix
  | None ->
    let ix = Index.build r.arity (Array.of_list (Tuple_set.elements r.tuples)) in
    r.index <- Some ix;
    ix

let check_arity r t =
  if Array.length t <> r.arity then
    invalid_arg
      (Printf.sprintf "Relation: tuple of arity %d in relation of arity %d"
         (Array.length t) r.arity)

let add r t =
  check_arity r t;
  make r.arity (Tuple_set.add t r.tuples)

let of_list arity tuples = List.fold_left add (empty arity) tuples

let arity r = r.arity

let cardinal r = Tuple_set.cardinal r.tuples

let is_empty r = Tuple_set.is_empty r.tuples

let mem r t =
  match r.index with
  | Some ix -> Index.mem ix t
  | None -> Tuple_set.mem t r.tuples

let same_arity op r s =
  if r.arity <> s.arity then invalid_arg ("Relation." ^ op ^ ": arity mismatch")

let union r s =
  same_arity "union" r s;
  make r.arity (Tuple_set.union r.tuples s.tuples)

let diff r s =
  same_arity "diff" r s;
  make r.arity (Tuple_set.diff r.tuples s.tuples)

let equal r s = r.arity = s.arity && Tuple_set.equal r.tuples s.tuples

let iter f r = Tuple_set.iter f r.tuples

let fold f r init = Tuple_set.fold f r.tuples init

let for_all p r = Tuple_set.for_all p r.tuples

let exists p r = Tuple_set.exists p r.tuples

let filter p r = make r.arity (Tuple_set.filter p r.tuples)

let elements r = Tuple_set.elements r.tuples

let tuples_array r = Index.tuples (index r)

let matching r ~pos ~value = Index.matching (index r) ~pos ~value

let choose r = Tuple_set.min_elt_opt r.tuples


let pp ppf r =
  Format.fprintf ppf "{%a}"
    (Format.pp_print_list ~pp_sep:(fun ppf () -> Format.fprintf ppf ", ") Tuple.pp)
    (elements r)
