open Relational

module Iset = Set.Make (Int)

type t = { arity : int; masks : Iset.t }

let check_arity arity =
  if arity < 0 || arity > 60 then invalid_arg "Boolean_relation: arity outside 0..60"

let create arity masks =
  check_arity arity;
  let limit = 1 lsl arity in
  List.iter
    (fun m ->
      if m < 0 || m >= limit then
        invalid_arg "Boolean_relation.create: mask outside arity range")
    masks;
  { arity; masks = Iset.of_list masks }

let arity r = r.arity

let cardinal r = Iset.cardinal r.masks

let is_empty r = Iset.is_empty r.masks

let mem r m = Iset.mem m r.masks

let masks r = Iset.elements r.masks

let mask_of_tuple t =
  if Array.length t > 60 then invalid_arg "Boolean_relation.mask_of_tuple: arity > 60";
  Array.to_list t
  |> List.mapi (fun i b ->
         match b with
         | 0 -> 0
         | 1 -> 1 lsl i
         | _ -> invalid_arg "Boolean_relation.mask_of_tuple: entry not 0/1")
  |> List.fold_left ( lor ) 0

let tuple_of_mask arity mask = Array.init arity (fun i -> (mask lsr i) land 1)

let tuples r = List.map (tuple_of_mask r.arity) (masks r)

let of_relation rel =
  create (Relation.arity rel)
    (Relation.fold (fun t acc -> mask_of_tuple t :: acc) rel [])

let to_relation r = Relation.of_list r.arity (tuples r)

let tuple_and = ( land )

let tuple_or = ( lor )

let tuple_xor3 a b c = a lxor b lxor c

let tuple_majority a b c = (a land b) lor (b land c) lor (a land c)

let closed_under2 r op =
  Iset.for_all (fun a -> Iset.for_all (fun b -> Iset.mem (op a b) r.masks) r.masks) r.masks

let closed_under3 r op =
  Iset.for_all
    (fun a ->
      Iset.for_all
        (fun b -> Iset.for_all (fun c -> Iset.mem (op a b c) r.masks) r.masks)
        r.masks)
    r.masks

let ones arity mask =
  List.filter (fun i -> (mask lsr i) land 1 = 1) (List.init arity Fun.id)

let complement_tuples r =
  let all = (1 lsl r.arity) - 1 in
  { r with masks = Iset.map (fun m -> all land lnot m) r.masks }

let pp ppf r =
  Format.fprintf ppf "{%a}"
    (Format.pp_print_list
       ~pp_sep:(fun ppf () -> Format.fprintf ppf ", ")
       (fun ppf m -> Tuple.pp ppf (tuple_of_mask r.arity m)))
    (masks r)
