(* Flight recorder: a bounded ring of the most recent engine events.
   Recording is a handful of integer/string stores into preallocated
   slots; the ring only matters when a violation or a stuck run needs the
   events that led up to it, at which point [window] yields the retained
   tail (oldest first) for the forensic bundle. *)

type entry = {
  at : int;
  kind : string; (* deliver / fire / crash / recover *)
  src : int; (* sender / owner pid *)
  dst : int; (* destination pid, -1 when not applicable *)
  label : string; (* message tag or timer label *)
}

let empty_entry = { at = 0; kind = ""; src = -1; dst = -1; label = "" }

type t = {
  cap : int;
  ring : entry array;
  mutable recorded : int; (* total entries ever recorded *)
}

let create ?(capacity = 256) () =
  if capacity <= 0 then
    invalid_arg "Recorder.create: capacity must be positive";
  { cap = capacity; ring = Array.make capacity empty_entry; recorded = 0 }

let record t ~at ~kind ~src ~dst ~label =
  t.ring.(t.recorded mod t.cap) <- { at; kind; src; dst; label };
  t.recorded <- t.recorded + 1

let recorded t = t.recorded
let dropped t = if t.recorded > t.cap then t.recorded - t.cap else 0
let capacity t = t.cap

let window t =
  let n = min t.recorded t.cap in
  let first = t.recorded - n in
  List.init n (fun i -> t.ring.((first + i) mod t.cap))

let entry_json e =
  Printf.sprintf "{\"at\":%d,\"kind\":\"%s\",\"src\":%d,\"dst\":%d,\"label\":\"%s\"}"
    e.at (Metrics.json_escape e.kind) e.src e.dst (Metrics.json_escape e.label)

let window_json t =
  let buf = Buffer.create 1024 in
  Buffer.add_char buf '[';
  List.iteri
    (fun i e ->
      if i > 0 then Buffer.add_char buf ',';
      Buffer.add_string buf (entry_json e))
    (window t);
  Buffer.add_char buf ']';
  Buffer.contents buf

(* The tail of the causal DAG around the breach: node metadata for the
   last 64 recorded nodes, plus totals, as an embeddable JSON object. *)
let dag_slice_json c =
  let n = Causal.node_count c in
  let first = max 0 (n - 64) in
  let buf = Buffer.create 1024 in
  Buffer.add_char buf '[';
  for i = first to n - 1 do
    if i > first then Buffer.add_char buf ',';
    Buffer.add_string buf
      (Printf.sprintf
         "{\"id\":%d,\"kind\":\"%s\",\"pid\":%d,\"t\":%d,\"label\":\"%s\"}" i
         (Causal.kind_name (Causal.kind_of c i))
         (Causal.pid_of c i) (Causal.time_of c i)
         (Metrics.json_escape (Causal.label_of c i)))
  done;
  Buffer.add_char buf ']';
  Printf.sprintf "{\"nodes\":%d,\"edges\":%d,\"slice_from\":%d,\"slice\":%s}" n
    (Causal.edge_count c) first (Buffer.contents buf)

(* The forensic bundle: everything a human (or scripts/check_monitor.py)
   needs to understand and replay one failed run. The monitor's first
   trip names the breach; a run that never tripped is reported stuck.
   [metrics] is a pre-rendered JSON fragment from the layer that owns
   it; the bundle itself is deterministic — replaying the one-line repro
   reproduces it byte for byte. *)
let bundle_json ~monitor ~stuck:(stuck_detail, stuck_at) ~repro ?causal
    ?(metrics = "null") t =
  let reason, property, detail, at =
    match Monitor.first_trip monitor with
    | Some tr -> ("violation", tr.Monitor.property, tr.Monitor.detail, tr.Monitor.at)
    | None -> ("stuck", "-", stuck_detail, stuck_at)
  in
  let dag = match causal with Some c -> dag_slice_json c | None -> "null" in
  let buf = Buffer.create 4096 in
  Buffer.add_string buf
    (Printf.sprintf
       "{\"bundle\":{\"reason\":\"%s\",\"property\":\"%s\",\"detail\":\"%s\",\
        \"at\":%d,\"repro\":\"%s\",\"ring\":{\"capacity\":%d,\"recorded\":%d,\
        \"dropped\":%d,\"window\":%s},\"dag\":%s,\"metrics\":%s}}\n"
       (Metrics.json_escape reason)
       (Metrics.json_escape property)
       (Metrics.json_escape detail)
       at
       (Metrics.json_escape repro)
       t.cap t.recorded (dropped t) (window_json t) dag metrics);
  Buffer.contents buf
