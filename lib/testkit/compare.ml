open Relational

let hom_equivalent a b = Homomorphism.exists a b && Homomorphism.exists b a

let is_injective (h : Homomorphism.mapping) =
  List.length (Homomorphism.image h) = Array.length h

let inverse ~target_size (h : Homomorphism.mapping) =
  let inv = Array.make target_size (-1) in
  Array.iteri (fun x v -> inv.(v) <- x) h;
  inv

let is_isomorphism a b h =
  Structure.size a = Structure.size b
  && is_injective h
  && Homomorphism.is_homomorphism a b h
  && Homomorphism.is_homomorphism b a (inverse ~target_size:(Structure.size b) h)

let isomorphic a b =
  Structure.size a = Structure.size b
  && Seq.exists (is_isomorphism a b) (Homomorphism.search_seq a b)
