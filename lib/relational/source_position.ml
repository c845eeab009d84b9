type t = { line : int; col : int }

let start = { line = 1; col = 1 }

let to_string { line; col } = Printf.sprintf "line %d, column %d" line col
