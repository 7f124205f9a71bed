(* Per-layer figures read from an [Obsv.Prof] run on the benchmark's clock. *)

open Perfbench_core

let per n d = if d = 0 then 0. else float_of_int n /. float_of_int d

(* The run loop outside the dispatch sites: queue pops, the network,
   trace and observer matches. *)
let engine prof =
  let run_wall, run_words = Obsv.Prof.run_totals prof in
  let events, site_wall, site_words = Obsv.Prof.site_totals prof in
  [
    ("sim.engine.loop_ns_per_event", per (run_wall - site_wall) events);
    ("sim.engine.loop_words_per_event", per (run_words - site_words) events);
    ("sim.engine.events_per_s", per events run_wall *. 1e9);
  ]

let role_totals prof labels =
  List.fold_left
    (fun (c, w, a) (s : Obsv.Prof.site) ->
      if List.mem s.s_label labels then
        (c + s.s_count, w + s.s_wall_ns, a + s.s_alloc_words)
      else (c, w, a))
    (0, 0, 0) (Obsv.Prof.sites prof)

let roles prof =
  let _, total_wall, _ = Obsv.Prof.site_totals prof in
  List.concat_map
    (fun (role, labels) ->
      match role_totals prof labels with
      | 0, _, _ -> []
      | count, wall, words ->
          [
            (role ^ ".ns_per_event", per wall count);
            (role ^ ".words_per_event", per words count);
            (role ^ ".share", per wall total_wall);
          ])
    Catalogue.roles

(* Per-role dispatch aggregates for the trace file: one row per process
   label and event kind, never one span per event. *)
let aggregates prof =
  let rows = Hashtbl.create 16 in
  List.iter
    (fun (s : Obsv.Prof.site) ->
      let key = (s.s_label, Obsv.Prof.kind_name s.s_kind) in
      let c, w, a = Option.value (Hashtbl.find_opt rows key) ~default:(0, 0, 0) in
      Hashtbl.replace rows key (c + s.s_count, w + s.s_wall_ns, a + s.s_alloc_words))
    (Obsv.Prof.sites prof);
  Hashtbl.fold (fun k v acc -> (k, v) :: acc) rows []
  |> List.sort compare
  |> List.map (fun ((label, kind), (count, wall, words)) ->
         Json.(
           obj
             [
               ("label", str label);
               ("kind", str kind);
               ("events", num (float_of_int count));
               ("wall_ns", num (float_of_int wall));
               ("words", num (float_of_int words));
             ]))

(* Set-up, engine loop and teardown of one traced call, as child spans. *)
let phases spans ~parent ~t_enter ~t_ret (clk : Pclock.t) =
  let add name start_ns end_ns =
    ignore (Spans.add spans ~parent ~name ~start_ns ~end_ns)
  in
  add "setup" t_enter clk.first_ns;
  add "engine_loop" clk.first_ns clk.last_ns;
  add "teardown" clk.last_ns t_ret
