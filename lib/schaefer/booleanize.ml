open Relational

let bits_needed n =
  let rec loop bits capacity = if capacity >= n then bits else loop (bits + 1) (2 * capacity) in
  loop 1 2

let encode_vocabulary bits vocab =
  Vocabulary.create
    (List.map (fun (name, arity) -> (name, arity * bits)) (Vocabulary.symbols vocab))

let encode_target b =
  let bits = bits_needed (Structure.size b) in
  let vocab = encode_vocabulary bits (Structure.vocabulary b) in
  let base = Structure.create vocab ~size:2 in
  Structure.fold_tuples
    (fun name t acc ->
      let k = Array.length t in
      let bt = Array.init (k * bits) (fun p -> (t.(p / bits) lsr (p mod bits)) land 1) in
      Structure.add_tuple acc name bt)
    b base

let encode_source ~bits a =
  let vocab = encode_vocabulary bits (Structure.vocabulary a) in
  let base = Structure.create vocab ~size:(Structure.size a * bits) in
  Structure.fold_tuples
    (fun name t acc ->
      let k = Array.length t in
      let bt = Array.init (k * bits) (fun p -> (t.(p / bits) * bits) + (p mod bits)) in
      Structure.add_tuple acc name bt)
    a base

let encode_pair a b =
  let bits = bits_needed (Structure.size b) in
  (encode_source ~bits a, encode_target b)

let decode_counting ~bits ~target hb =
  let n = Array.length hb / bits in
  let clamped = ref 0 in
  let h =
    Array.init n (fun x ->
        let v = ref 0 in
        for j = 0 to bits - 1 do
          v := !v lor (hb.((x * bits) + j) lsl j)
        done;
        if !v < Structure.size target then !v
        else begin
          incr clamped;
          0
        end)
  in
  Telemetry.count "schaefer.booleanize.clamped" !clamped;
  (h, !clamped)

type decode_context = {
  bits : int;
  source_size : int;
  target_size : int;
  clamped : int;
  mapping : Homomorphism.mapping;
}

exception Decode_rejected of decode_context

let () =
  Printexc.register_printer (function
    | Decode_rejected { bits; source_size; target_size; clamped; _ } ->
      Some
        (Printf.sprintf
           "Booleanize.Decode_rejected { bits = %d; source_size = %d; \
            target_size = %d; clamped = %d }"
           bits source_size target_size clamped)
    | _ -> None)

type outcome =
  | Hom of Homomorphism.mapping
  | No_hom of Certificate.t
  | Not_schaefer of Structure.t

let solve ?budget a b =
  if Uniform.arity_mismatch a b then Not_schaefer (encode_target b)
  else
    match Uniform.empty_relation_refutation a b with
    | Some cert -> No_hom cert
    | None when Structure.size b = 0 ->
      if Structure.size a = 0 then Hom [||] else No_hom Certificate.no_image
    | None -> (
      let bits = bits_needed (Structure.size b) in
      let ab, bb = encode_pair a b in
      match Uniform.solve ?budget ab bb with
      | Uniform.Hom hb ->
        let h, clamped = decode_counting ~bits ~target:b hb in
        if Homomorphism.is_homomorphism a b h then Hom h
        else
          raise
            (Decode_rejected
               {
                 bits;
                 source_size = Structure.size a;
                 target_size = Structure.size b;
                 clamped;
                 mapping = h;
               })
      | Uniform.No_hom inner -> No_hom (Certificate.Via_booleanization { bits; inner })
      | Uniform.Not_applicable _ -> Not_schaefer bb)
