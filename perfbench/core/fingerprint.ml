type t = (string * int) list

let diff a b =
  let rec go = function
    | [], [] -> None
    | (k, _) :: _, [] | [], (k, _) :: _ -> Some ("field " ^ k ^ " present once")
    | (ka, va) :: ra, (kb, vb) :: rb ->
        if ka <> kb then Some (Printf.sprintf "field %s vs %s" ka kb)
        else if va <> vb then Some (Printf.sprintf "%s: %d vs %d" ka va vb)
        else go (ra, rb)
  in
  go (a, b)

let to_json t =
  "{"
  ^ String.concat ","
      (List.map (fun (k, v) -> Printf.sprintf "\"%s\":%d" k v) t)
  ^ "}"
