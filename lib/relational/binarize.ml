let symbol p i q j = Printf.sprintf "E_%s_%d_%s_%d" p i q j

let vocabulary vocab =
  let symbols = Vocabulary.symbols vocab in
  let names =
    List.concat_map
      (fun (p, ap) ->
        List.concat_map
          (fun (q, aq) ->
            List.concat_map
              (fun i -> List.init aq (fun j -> (symbol p i q j, 2)))
              (List.init ap Fun.id))
          symbols)
      symbols
  in
  Vocabulary.create names

let encode a =
  let vocab = Structure.vocabulary a in
  let facts = Array.of_list (Structure.facts a) in
  let bvocab = vocabulary vocab in
  let base = Structure.create bvocab ~size:(Array.length facts) in
  let result = ref base in
  Array.iteri
    (fun si (p, s) ->
      Array.iteri
        (fun ti (q, t) ->
          Array.iteri
            (fun i si_val ->
              Array.iteri
                (fun j tj_val ->
                  if si_val = tj_val then
                    result := Structure.add_tuple !result (symbol p i q j) [| si; ti |])
                t)
            s)
        facts)
    facts;
  !result

let encode_economical a =
  let vocab = Structure.vocabulary a in
  let facts = Array.of_list (Structure.facts a) in
  let bvocab = vocabulary vocab in
  let base = Structure.create bvocab ~size:(Array.length facts) in
  (* Reflexive pairs: every fact knows its own coincidences. *)
  let result = ref base in
  Array.iteri
    (fun si (p, s) ->
      Array.iteri
        (fun i si_val ->
          Array.iteri
            (fun j sj_val ->
              if si_val = sj_val then
                result := Structure.add_tuple !result (symbol p i p j) [| si; si |])
            s)
        s)
    facts;
  (* Chain the occurrences of each element across facts. *)
  let occurrences = Hashtbl.create 64 in
  Array.iteri
    (fun si (p, s) ->
      Array.iteri
        (fun i v ->
          let prev = Hashtbl.find_opt occurrences v in
          (match prev with
          | Some (sj, q, j) ->
            result := Structure.add_tuple !result (symbol q j p i) [| sj; si |];
            result := Structure.add_tuple !result (symbol p i q j) [| si; sj |]
          | None -> ());
          Hashtbl.replace occurrences v (si, p, i))
        s)
    facts;
  !result
