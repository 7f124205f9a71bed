(* Spans kept in memory during a traced run and written once at the end. *)

type span = {
  id : int;
  parent : int;  (** -1 for the root *)
  name : string;
  start_ns : int;
  end_ns : int;
  attrs : (string * string) list;  (** already-encoded JSON values *)
}

type t = { mutable spans : span list; mutable next : int }

let create () = { spans = []; next = 0 }

let add t ~parent ~name ~start_ns ~end_ns =
  let id = t.next in
  t.next <- id + 1;
  t.spans <- { id; parent; name; start_ns; end_ns; attrs = [] } :: t.spans;
  id

(* Run [f] inside a span; [f] receives the span's id for its children. *)
let within t ~parent ~name f =
  let id = t.next in
  t.next <- id + 1;
  let start_ns = Pclock.now_ns () in
  let r = f id in
  let end_ns = Pclock.now_ns () in
  t.spans <- { id; parent; name; start_ns; end_ns; attrs = [] } :: t.spans;
  r

let set_attrs t id attrs =
  t.spans <-
    List.map (fun s -> if s.id = id then { s with attrs = s.attrs @ attrs } else s) t.spans

let to_json t =
  let open Perfbench_core.Json in
  arr
    (List.map
       (fun s ->
         obj
           ([
              ("id", num (float_of_int s.id));
              ("parent", num (float_of_int s.parent));
              ("name", str s.name);
              ("start_ns", num (float_of_int s.start_ns));
              ("dur_ns", num (float_of_int (s.end_ns - s.start_ns)));
            ]
           @ s.attrs))
       (List.sort (fun a b -> compare a.id b.id) t.spans))
