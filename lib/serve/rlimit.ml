type resource = Address_space | Cpu_time

external setrlimit_stub : int -> int -> int = "cqcsp_setrlimit"

let tag = function Address_space -> 0 | Cpu_time -> 1

let set r v =
  if v < 0 then Error "negative limit"
  else
    match setrlimit_stub (tag r) v with
    | 0 -> Ok ()
    | errno -> Error (Printf.sprintf "setrlimit failed (errno %d)" errno)
