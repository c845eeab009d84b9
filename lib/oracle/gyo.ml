open Relational
module Iset = Set.Make (Int)

let join_forest a =
  let facts = Array.of_list (Structure.facts a) in
  let nfacts = Array.length facts in
  let sets = Array.map (fun (_, t) -> Iset.of_list (Tuple.elements t)) facts in
  let alive = Array.make nfacts true in
  let parent = Array.make nfacts (-1) in
  let changed = ref true in
  while !changed do
    changed := false;
    (* (a) Remove private vertices. *)
    let occurrences = Hashtbl.create 64 in
    Array.iteri
      (fun i s ->
        if alive.(i) then
          Iset.iter
            (fun v ->
              Hashtbl.replace occurrences v
                (1 + Option.value ~default:0 (Hashtbl.find_opt occurrences v)))
            s)
      sets;
    Array.iteri
      (fun i s ->
        if alive.(i) then begin
          let s' = Iset.filter (fun v -> Hashtbl.find occurrences v > 1) s in
          if not (Iset.equal s s') then begin
            sets.(i) <- s';
            changed := true
          end
        end)
      sets;
    (* (b) Remove contained hyperedges. *)
    for e = 0 to nfacts - 1 do
      if alive.(e) then begin
        let container = ref (-1) in
        for f = 0 to nfacts - 1 do
          if !container < 0 && f <> e && alive.(f) && Iset.subset sets.(e) sets.(f)
          then container := f
        done;
        if !container >= 0 then begin
          alive.(e) <- false;
          parent.(e) <- !container;
          changed := true
        end
      end
    done
  done;
  let survivors = Array.to_list alive |> List.filter Fun.id |> List.length in
  if survivors > 1 then None else Some (facts, parent)
