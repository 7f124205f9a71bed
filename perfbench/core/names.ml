let is_alnum c =
  (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') || (c >= '0' && c <= '9')

let valid_name s =
  let n = String.length s in
  n >= 1 && n <= 64
  && is_alnum s.[0]
  && String.for_all (fun c -> is_alnum c || c = '_' || c = '.' || c = '-') s

let valid_unit s =
  let n = String.length s in
  n >= 1 && n <= 16
  && String.for_all
       (fun c -> is_alnum c || String.contains "_/%.-" c)
       s

let check metrics =
  let seen = Hashtbl.create 64 in
  let problems =
    List.filter_map
      (fun (name, unit_) ->
        let dup = Hashtbl.mem seen name in
        Hashtbl.replace seen name ();
        if not (valid_name name) then Some ("invalid metric name " ^ name)
        else if not (valid_unit unit_) then
          Some (Printf.sprintf "invalid unit %s of %s" unit_ name)
        else if dup then Some ("duplicate metric name " ^ name)
        else None)
      metrics
  in
  if problems = [] then Ok () else Error problems
