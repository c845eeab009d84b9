type t = int array

(* [compare], [equal] and [hash] run on every hash-index probe and set
   operation, so they are plain loops: no closure built or called per
   tuple.  [s] and [t] have the same length. *)
let rec compare_from (s : t) (t : t) i =
  if i >= Array.length s then 0
  else
    let c = Int.compare s.(i) t.(i) in
    if c <> 0 then c else compare_from s t (i + 1)

let compare (s : t) (t : t) =
  let ls = Array.length s and lt = Array.length t in
  if ls <> lt then Int.compare ls lt else compare_from s t 0

let equal (s : t) (t : t) = compare s t = 0

(* Avalanche finalizer (splitmix-style, truncated to OCaml's int width):
   every input bit affects every output bit, so hash tables keyed by tuples
   do not degenerate on structured instances (grids, paths, staircases)
   whose entries differ only in low-order bits. *)
let mix h =
  let h = h lxor (h lsr 30) in
  let h = h * 0x1aec805299990163 in
  let h = h lxor (h lsr 27) in
  let h = h * 0x2545f4914f6cdd1d in
  (h lxor (h lsr 31)) land max_int

let hash (t : t) =
  let h = ref (mix (Array.length t)) in
  for i = 0 to Array.length t - 1 do
    h := mix (!h lxor (t.(i) + 0x9e3779b9))
  done;
  !h

module Table = Hashtbl.Make (struct
  type nonrec t = t

  let equal = equal

  let hash = hash
end)

let elements t =
  let seen = Hashtbl.create (Array.length t) in
  let acc = ref [] in
  Array.iter
    (fun x ->
      if not (Hashtbl.mem seen x) then begin
        Hashtbl.add seen x ();
        acc := x :: !acc
      end)
    t;
  List.rev !acc

let pp ppf t =
  Format.fprintf ppf "(%a)"
    (Format.pp_print_list
       ~pp_sep:(fun ppf () -> Format.fprintf ppf ", ")
       Format.pp_print_int)
    (Array.to_list t)
