module Iset = Set.Make (Int)

type t = { size : int; adj : Iset.t array }

let create size =
  if size < 0 then invalid_arg "Graph.create: negative size";
  { size; adj = Array.make (max size 1) Iset.empty }

let size g = g.size

let check g v =
  if v < 0 || v >= g.size then invalid_arg "Graph: vertex out of range"

let of_edges ~size edges =
  let g = create size in
  List.iter
    (fun (u, v) ->
      check g u;
      check g v;
      if u <> v then begin
        g.adj.(u) <- Iset.add v g.adj.(u);
        g.adj.(v) <- Iset.add u g.adj.(v)
      end)
    edges;
  g

let adjacency g = Array.sub g.adj 0 g.size

let neighbors g v =
  check g v;
  Iset.elements g.adj.(v)

let edges g =
  let acc = ref [] in
  for u = g.size - 1 downto 0 do
    Iset.iter (fun v -> if u < v then acc := (u, v) :: !acc) g.adj.(u)
  done;
  List.sort compare !acc
