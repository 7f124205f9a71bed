(* The benchmark program: one workload, one mode, one JSON result line.

   perfbench --workload NAME --seed N --seconds S --trace 0|1

   --trace 0 times untraced calls of the workload for S seconds (after
   timing its set-up several times) and reports the end-to-end metrics.
   --trace 1 makes one untraced and one traced call, runs the kernel
   probes, reports the per-layer metrics and writes the run's spans to
   .bench_out/trace-NAME-seedN.json. The last line of standard output is
   the result; the line before it stamps the result with the host. *)

open Perfbench_core

let min_setups = 5
let out_dir = ".bench_out"

type kind = Load of Traffic.Workload.t | Soak of Soak.input array

let fail_usage msg =
  prerr_endline ("perfbench: " ^ msg);
  prerr_endline "usage: perfbench --workload NAME --seed N --seconds S --trace 0|1";
  exit 2

let ms ns = float_of_int ns /. 1e6

(* Output checks over every call: each call's own checks, and one
   fingerprint across all of them. *)
let check_calls (calls : Call.t list) =
  let first = (List.hd calls).fingerprint in
  List.concat_map (fun (c : Call.t) -> c.problems) calls
  @ List.filter_map
      (fun (c : Call.t) ->
        Option.map (fun d -> "fingerprint differs between calls: " ^ d)
          (Fingerprint.diff first c.fingerprint))
      calls

(* The first call warms the process up: it is checked but not timed, and
   the resident-set high-water mark read after it is that of one call in a
   fresh process. Set-up is timed before every further call, so its
   samples spread over the run like the calls' do. A call starts only if
   it should end within [seconds] of the run's start, judged by how long
   the step before it took, so a run lasts about [seconds] whatever the
   host's speed. *)
let call kind ~seed = match kind with Load w -> Loads.call w ~seed | Soak i -> Soak.call i

let untraced kind ~seed ~seconds =
  let setup () =
    match kind with Load w -> Loads.setup_ns w ~seed | Soak i -> Soak.setup_ns i
  in
  let call () = call kind ~seed in
  let budget = seconds * 1_000_000_000 in
  let t_start = Pclock.now_ns () in
  let elapsed () = Pclock.now_ns () - t_start in
  let warmup = call () in
  let peak_rss_mb = Host.peak_rss_mb () in
  let calibration = ref [] in
  let rec loop calls setups step_ns =
    let fits () = elapsed () + step_ns <= budget in
    if calls <> [] && List.length setups >= min_setups && not (fits ()) then
      (List.rev calls, setups)
    else
      let t_step = elapsed () in
      let s = setup () in
      if calls <> [] && not (fits ()) then loop calls (s :: setups) step_ns
      else begin
        calibration := (Host.alu_ms (), Host.memory_ms ()) :: !calibration;
        let c = call () in
        loop (c :: calls) (s :: setups) (elapsed () - t_step)
      end
  in
  let calls, setups = loop [] [] (elapsed ()) in
  let setups = List.map (fun ns -> float_of_int ns /. 1e9) setups in
  Printf.eprintf "perfbench: call ms %s; set-up ms %s\n%!"
    (String.concat " " (List.map (fun (c : Call.t) -> Printf.sprintf "%.0f" (ms c.wall_ns)) calls))
    (String.concat " " (List.map (fun s -> Printf.sprintf "%.0f" (s *. 1e3)) setups));
  let last = List.nth calls (List.length calls - 1) in
  (* Every call runs the same inputs in the same order. A run's typical
     time is its median over the calls, so a host hiccup that stalls one
     call's run does not reach the tail; the tail percentile is then taken
     over the runs. A load call is a single run. *)
  let typical =
    let runs = List.map (fun (c : Call.t) -> Array.of_list c.run_ms) calls in
    List.init (List.length last.run_ms) (fun i ->
        Stats.median (List.map (fun r -> r.(i)) runs))
  in
  let tail, permille = Stats.tail typical in
  Printf.eprintf
    "perfbench: %d timed calls of %d runs each, run ms p50 %.4f, tail percentile %s\n%!"
    (List.length calls) (List.length typical) (Stats.median typical)
    (match permille with
    | Some p -> Printf.sprintf "p%g" (float_of_int p /. 10.)
    | None -> "none, the median");
  let metrics =
    [
      ( "payments_per_s",
        Stats.median
          (List.map
             (fun (c : Call.t) -> float_of_int c.committed /. (float_of_int c.wall_ns /. 1e9))
             calls) );
      ("setup_s", Stats.median setups);
      ("peak_rss_mb", peak_rss_mb);
      ("minor_words_per_event", float_of_int last.words /. float_of_int (max 1 last.events));
      ("committed_share", float_of_int last.committed /. float_of_int last.attempted);
      ("run_ms_p99", tail);
    ]
  in
  (warmup :: calls, check_calls (warmup :: calls), metrics, last.fingerprint, !calibration)

let shape kind ~depth : Probes.shape =
  let base =
    {
      Probes.hops = 2;
      mac_bytes = 64;
      certs = false;
      depth;
      journal = 0;
      routed = None;
      plan = None;
      protocols = [];
    }
  in
  match kind with
  | Load w ->
      let protocols =
        List.filter_map
          (fun (p, _) ->
            let n = Traffic.Workload.proto_name p in
            if List.mem n Catalogue.payment_protocols then Some n else None)
          w.mix
      in
      let certs = w.committee <> None in
      {
        base with
        hops = w.hops;
        mac_bytes = (if certs then 224 else 64);
        certs;
        journal = w.payments;
        routed = Option.map (fun t -> (t, w.route, w.splits)) w.topology;
        protocols;
      }
  | Soak inputs ->
      let plan =
        match
          Array.find_opt (fun (i : Soak.input) -> i.plan.Faults.Fault_plan.links <> []) inputs
        with
        | Some i -> i.plan
        | None -> inputs.(0).plan
      in
      { base with hops = Soak.hops; journal = 1; plan = Some plan; protocols = [ "sync" ] }

let write_file path text =
  (try Sys.mkdir out_dir 0o755 with Sys_error _ -> ());
  Out_channel.with_open_text path (fun oc -> output_string oc text)

let traced name kind ~seed =
  let calibration = List.init 5 (fun _ -> (Host.alu_ms (), Host.memory_ms ())) in
  let spans = Spans.create () in
  let warmup, untraced, traced, layer, probes, aggregates =
    Spans.within spans ~parent:(-1) ~name:("workload:" ^ name) (fun root ->
        (* an untimed call first, so the untraced and traced calls that
           [trace.overhead_ratio] compares both run in a warm process *)
        let warmup = Spans.within spans ~parent:root ~name:"warmup_call" (fun _ -> call kind ~seed) in
        let untraced, traced, layer, depth, aggregates =
          match kind with
          | Load w -> Loads.traced spans ~parent:root w ~seed
          | Soak i -> Soak.traced spans ~parent:root i
        in
        let probes =
          Spans.within spans ~parent:root ~name:"probes" (fun id ->
              Probes.run spans ~parent:id (shape kind ~depth))
        in
        (warmup, untraced, traced, layer, probes, aggregates))
  in
  let measured = layer @ probes in
  List.iter
    (fun (n, _) ->
      if not (List.mem_assoc n Catalogue.per_layer) then
        failwith ("metric outside the catalogue: " ^ n))
    measured;
  let metrics =
    List.map
      (fun (n, _) -> (n, Option.value (List.assoc_opt n measured) ~default:0.))
      Catalogue.per_layer
  in
  let problems =
    check_calls [ warmup; untraced ]
    @ traced.Call.problems
    @ Option.to_list
        (Option.map (fun d -> "tracing changed the output: " ^ d)
           (Fingerprint.diff untraced.fingerprint traced.fingerprint))
  in
  let path = Printf.sprintf "%s/trace-%s-seed%d.json" out_dir name seed in
  write_file path
    (Json.obj
       [
         ("host", Host.to_json ());
         ("workload", Json.str name);
         ("seed", Json.num (float_of_int seed));
         ("spans", Spans.to_json spans);
         ("dispatch", Json.arr aggregates);
         ("metrics", Json.obj (List.map (fun (n, v) -> (n, Json.num v)) metrics));
       ]
    ^ "\n");
  Printf.eprintf "perfbench: spans written to %s\n%!" path;
  ([ warmup; untraced; traced ], problems, metrics, untraced.fingerprint, calibration)

let () =
  let workload = ref "" and seed = ref (-1) and seconds = ref 0 and trace = ref (-1) in
  let spec =
    [
      ("--workload", Arg.Set_string workload, "NAME one of the benchmark's workloads");
      ("--seed", Arg.Set_int seed, "N workload seed (>= 0)");
      ("--seconds", Arg.Set_int seconds, "S how long the untraced run measures");
      ("--trace", Arg.Set_int trace, "0|1 end-to-end (0) or per-layer (1) metrics");
    ]
  in
  (try Arg.parse_argv Sys.argv spec (fun a -> fail_usage ("unexpected argument " ^ a)) ""
   with Arg.Bad m | Arg.Help m -> fail_usage (List.hd (String.split_on_char '\n' m)));
  let name = !workload in
  if not (List.mem name Catalogue.workloads) then
    fail_usage
      (Printf.sprintf "unknown workload %S (one of %s)" name
         (String.concat ", " Catalogue.workloads));
  if !seed < 0 then fail_usage "--seed must be >= 0";
  if !seconds < 1 then fail_usage "--seconds must be >= 1";
  if !trace <> 0 && !trace <> 1 then fail_usage "--trace must be 0 or 1";
  Obsv.Span.set_capture Obsv.Span.default false;
  let seed = !seed in
  let kind =
    match Loads.workload name with
    | Some w -> Load w
    | None when name = Soak.name -> Soak (Soak.inputs ~seed)
    | None -> failwith ("no implementation for workload " ^ name)
  in
  let calls, problems, metrics, fingerprint, calibration =
    if !trace = 0 then untraced kind ~seed ~seconds:!seconds else traced name kind ~seed
  in
  List.iter (fun p -> prerr_endline ("perfbench: check failed: " ^ p)) problems;
  let units = if !trace = 0 then Catalogue.end_to_end else Catalogue.per_layer in
  let sum f = List.fold_left (fun a c -> a + f c) 0 calls in
  let stamp =
    Json.obj
      [
        ("host", Host.to_json ());
        ("workload", Json.str name);
        ("seed", Json.num (float_of_int seed));
        ("trace", Json.num (float_of_int !trace));
        ( "calibration_ms",
          Json.obj
            [
              ("alu", Json.num (Stats.median (List.map fst calibration)));
              ("memory", Json.num (Stats.median (List.map snd calibration)));
            ] );
        ("fingerprint", Fingerprint.to_json fingerprint);
      ]
  in
  let result =
    Json.obj
      [
        ("correct", if problems = [] then "true" else "false");
        ("attempted", Json.num (float_of_int (sum (fun c -> c.Call.attempted))));
        ("failed", Json.num (float_of_int (sum (fun c -> c.Call.failed))));
        ( "metrics",
          Json.obj
            (List.map
               (fun (n, v) ->
                 (n, Json.obj [ ("value", Json.num v); ("unit", Json.str (List.assoc n units)) ]))
               metrics) );
      ]
  in
  print_endline stamp;
  print_endline result
