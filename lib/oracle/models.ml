open Schaefer

let satisfies_cnf assignment (f : Cnf.t) =
  List.for_all
    (List.exists (fun (l : Cnf.literal) -> assignment.(l.var) = l.sign))
    f.clauses

let satisfies_gf2 assignment (s : Gf2.system) =
  List.for_all
    (fun (e : Gf2.equation) ->
      let sum = ref false in
      Array.iteri (fun i c -> if c && assignment.(i) then sum := not !sum) e.coeffs;
      !sum = e.rhs)
    s.equations

let enumerate ~what nvars satisfies =
  if nvars > 22 then invalid_arg (what ^ ": too many variables");
  let acc = ref [] in
  for mask = (1 lsl nvars) - 1 downto 0 do
    let assignment = Array.init nvars (fun i -> (mask lsr i) land 1 = 1) in
    if satisfies assignment then acc := assignment :: !acc
  done;
  !acc

let cnf (f : Cnf.t) = enumerate ~what:"Models.cnf" f.nvars (fun a -> satisfies_cnf a f)

let gf2 (s : Gf2.system) = enumerate ~what:"Models.gf2" s.nvars (fun a -> satisfies_gf2 a s)
