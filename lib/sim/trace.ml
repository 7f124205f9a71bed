type ('msg, 'obs) entry =
  | Sent of { t : Sim_time.t; src : int; dst : int; tag : string; msg : 'msg }
  | Delivered of {
      t : Sim_time.t;
      sent_at : Sim_time.t;
      src : int;
      dst : int;
      tag : string;
      msg : 'msg;
    }
  | Timer_set of {
      t : Sim_time.t;
      owner : int;
      label : string;
      local_deadline : Sim_time.t;
      global_fire : Sim_time.t;
    }
  | Timer_fired of { t : Sim_time.t; owner : int; label : string }
  | Observed of { t : Sim_time.t; pid : int; obs : 'obs }
  | Halted of { t : Sim_time.t; pid : int }
  | Crashed of { t : Sim_time.t; pid : int; recover_at : Sim_time.t option }
  | Recovered of { t : Sim_time.t; pid : int }

type ('msg, 'obs) t = {
  capacity : int option;
  mutable rev_entries : ('msg, 'obs) entry list; (* unbounded mode *)
  mutable ring : ('msg, 'obs) entry option array; (* bounded mode *)
  mutable head : int; (* ring index of the oldest kept entry *)
  mutable kept : int;
  mutable count : int; (* total recorded, including dropped *)
  mutable dropped : int;
  mutable hooks : (('msg, 'obs) entry -> unit) list; (* run order *)
}

let create ?capacity () =
  (match capacity with
  | Some c when c <= 0 -> invalid_arg "Trace.create: capacity must be positive"
  | _ -> ());
  {
    capacity;
    rev_entries = [];
    ring = (match capacity with None -> [||] | Some c -> Array.make c None);
    head = 0;
    kept = 0;
    count = 0;
    dropped = 0;
    hooks = [];
  }

(* registration is rare and recording is hot, so the list is kept in run
   order here rather than reversed on every record *)
let on_record t f = t.hooks <- t.hooks @ [ f ]

let record t e =
  (match t.hooks with [] -> () | hooks -> List.iter (fun f -> f e) hooks);
  (match t.capacity with
  | None -> t.rev_entries <- e :: t.rev_entries
  | Some cap ->
      if t.kept = cap then begin
        (* overwrite the oldest: the window slides forward *)
        t.ring.(t.head) <- Some e;
        t.head <- (t.head + 1) mod cap;
        t.dropped <- t.dropped + 1
      end
      else begin
        t.ring.((t.head + t.kept) mod cap) <- Some e;
        t.kept <- t.kept + 1
      end);
  t.count <- t.count + 1

(* Newest-first fold covering both storage modes; chronological consumers
   cons onto their accumulator. *)
let fold_newest f acc t =
  match t.capacity with
  | None -> List.fold_left f acc t.rev_entries
  | Some cap ->
      let acc = ref acc in
      for i = t.kept - 1 downto 0 do
        match t.ring.((t.head + i) mod cap) with
        | Some e -> acc := f !acc e
        | None -> ()
      done;
      !acc

let to_list t = fold_newest (fun acc e -> e :: acc) [] t
let length t = t.count
let dropped_count t = t.dropped

let time_of = function
  | Sent { t; _ }
  | Delivered { t; _ }
  | Timer_set { t; _ }
  | Timer_fired { t; _ }
  | Observed { t; _ }
  | Halted { t; _ }
  | Crashed { t; _ }
  | Recovered { t; _ } ->
      t

(* Folding newest-first (consing onto the accumulator) yields chronological
   order without materialising the O(n) intermediate list that [to_list]
   would. *)
let observations t =
  fold_newest
    (fun acc e ->
      match e with Observed { t; pid; obs } -> (t, pid, obs) :: acc | _ -> acc)
    [] t

let message_count t =
  fold_newest (fun acc e -> match e with Sent _ -> acc + 1 | _ -> acc) 0 t

let last_time t =
  fold_newest (fun acc e -> match acc with None -> Some (time_of e) | some -> some)
    None t
  |> Option.value ~default:Sim_time.zero

let find_observation t ~f =
  let rec go = function
    | [] -> None
    | Observed { t; pid; obs } :: _ when f pid obs -> Some (t, pid, obs)
    | _ :: rest -> go rest
  in
  go (to_list t)

let pp ~msg ~obs ppf t =
  let pp_entry ppf = function
    | Sent { t; src; dst; tag; msg = m } ->
        Fmt.pf ppf "%a  %d -> %d  send [%s] %a" Sim_time.pp t src dst tag msg m
    | Delivered { t; sent_at; src; dst; tag; msg = m } ->
        Fmt.pf ppf "%a  %d -> %d  recv [%s] %a (sent %a)" Sim_time.pp t src dst
          tag msg m Sim_time.pp sent_at
    | Timer_set { t; owner; label; local_deadline; global_fire } ->
        Fmt.pf ppf "%a  %d       timer-set %s @local %a (fires %a)" Sim_time.pp
          t owner label Sim_time.pp local_deadline Sim_time.pp global_fire
    | Timer_fired { t; owner; label } ->
        Fmt.pf ppf "%a  %d       timer %s" Sim_time.pp t owner label
    | Observed { t; pid; obs = o } ->
        Fmt.pf ppf "%a  %d       obs %a" Sim_time.pp t pid obs o
    | Halted { t; pid } -> Fmt.pf ppf "%a  %d       halted" Sim_time.pp t pid
    | Crashed { t; pid; recover_at } ->
        Fmt.pf ppf "%a  %d       crashed%a" Sim_time.pp t pid
          Fmt.(option (any " (recovers " ++ Sim_time.pp ++ any ")"))
          recover_at
    | Recovered { t; pid } ->
        Fmt.pf ppf "%a  %d       recovered" Sim_time.pp t pid
  in
  Fmt.pf ppf "@[<v>%a@]" (Fmt.list pp_entry) (to_list t)

(* minimal JSON string escaping: quotes, backslashes, control chars *)
let json_escape s =
  let buf = Buffer.create (String.length s + 8) in
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string buf "\\\""
      | '\\' -> Buffer.add_string buf "\\\\"
      | '\n' -> Buffer.add_string buf "\\n"
      | '\t' -> Buffer.add_string buf "\\t"
      | '\r' -> Buffer.add_string buf "\\r"
      | c when Char.code c < 0x20 ->
          Buffer.add_string buf (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char buf c)
    s;
  Buffer.contents buf

let to_jsonl ~msg ~obs t =
  let buf = Buffer.create 1024 in
  let line fmt = Printf.ksprintf (fun s -> Buffer.add_string buf s; Buffer.add_char buf '\n') fmt in
  List.iteri
    (fun seq entry ->
      match entry with
      | Sent { t; src; dst; tag; msg = m } ->
          line
            {|{"seq":%d,"kind":"sent","t":%d,"src":%d,"dst":%d,"tag":"%s","msg":"%s"}|}
            seq t src dst (json_escape tag) (json_escape (msg m))
      | Delivered { t; sent_at; src; dst; tag; msg = m } ->
          line
            {|{"seq":%d,"kind":"delivered","t":%d,"sent_at":%d,"src":%d,"dst":%d,"tag":"%s","msg":"%s"}|}
            seq t sent_at src dst (json_escape tag) (json_escape (msg m))
      | Timer_set { t; owner; label; local_deadline; global_fire } ->
          line
            {|{"seq":%d,"kind":"timer_set","t":%d,"owner":%d,"label":"%s","local_deadline":%s,"global_fire":%s}|}
            seq t owner (json_escape label)
            (if Sim_time.is_infinite local_deadline then {|"inf"|}
             else string_of_int local_deadline)
            (if Sim_time.is_infinite global_fire then {|"inf"|}
             else string_of_int global_fire)
      | Timer_fired { t; owner; label } ->
          line {|{"seq":%d,"kind":"timer_fired","t":%d,"owner":%d,"label":"%s"}|}
            seq t owner (json_escape label)
      | Observed { t; pid; obs = o } ->
          line {|{"seq":%d,"kind":"observed","t":%d,"pid":%d,"obs":"%s"}|} seq t
            pid
            (json_escape (obs o))
      | Halted { t; pid } ->
          line {|{"seq":%d,"kind":"halted","t":%d,"pid":%d}|} seq t pid
      | Crashed { t; pid; recover_at } ->
          line {|{"seq":%d,"kind":"crashed","t":%d,"pid":%d,"recover_at":%s}|}
            seq t pid
            (match recover_at with
            | None -> "null"
            | Some r -> string_of_int r)
      | Recovered { t; pid } ->
          line {|{"seq":%d,"kind":"recovered","t":%d,"pid":%d}|} seq t pid)
    (to_list t);
  Buffer.contents buf
