let string_of v =
  match Option.map String.trim v with
  | None | Some "" -> None
  | Some _ as s -> s

let flag_of v = match string_of v with None | Some "0" -> false | Some _ -> true

let int_of ?(min = min_int) var v =
  match string_of v with
  | None -> None
  | Some s -> (
    match int_of_string_opt s with
    | Some n when n >= min -> Some n
    | Some _ | None ->
      failwith
        (if min = min_int then Printf.sprintf "%s=%S: expected an integer" var s
         else Printf.sprintf "%s=%S: expected an integer >= %d" var s min))

let flag var = flag_of (Sys.getenv_opt var)
let string var = string_of (Sys.getenv_opt var)
let int ?min var = int_of ?min var (Sys.getenv_opt var)
