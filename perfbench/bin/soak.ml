(* The monitored chaos soak: single-payment [Sync_timebound] runs under
   random fault plans, each a timed [Xchain.Chaos.run_one] call with a
   fresh [Obsv.Monitor]. One timed call of the workload is one pass over
   every run. *)

module C = Xchain.Chaos
module R = Protocols.Runner

let name = "chaos_soak_monitored"
let hops = 3
let runs = 2000
let nprocs = (2 * hops) + 1

type input = { run_seed : int; plan : Faults.Fault_plan.t }

(* The benchmark generates every plan itself from its seed, so the
   program only ever receives (seed, plan) pairs. *)
let inputs ~seed =
  let horizon =
    (R.derive_params (R.default_config ~hops ~seed) R.Sync_timebound)
      .Protocols.Params.horizon
  in
  let rng = Sim.Rng.create ~seed in
  Array.init runs (fun _ ->
      let run_seed = Sim.Rng.int rng 1_000_000_000 in
      let plan = Faults.Fault_plan.random (Sim.Rng.split rng) ~nprocs ~horizon in
      { run_seed; plan })

let run_one ?prof ~monitored i =
  let monitor = if monitored then Some (Obsv.Monitor.create ()) else None in
  let r = C.run_one ~hops ?prof ?monitor ~plan:i.plan ~seed:i.run_seed () in
  (r, monitor)

let status_name = function
  | Sim.Engine.Quiescent -> "quiescent"
  | Horizon_reached -> "horizon"
  | Event_limit -> "event-limit"
  | Violation_stop -> "violation-stop"

let check (r : C.run_result) monitor =
  let where = Printf.sprintf "run seed %d" r.seed in
  List.filter_map Fun.id
    [
      (match r.classification with
      | C.Safety_violation -> Some (where ^ ": safety violation")
      | _ -> None);
      (match r.status with
      | Sim.Engine.Quiescent -> None
      | s -> Some (where ^ ": engine stopped " ^ status_name s));
      (match Option.map Obsv.Monitor.violations monitor with
      | Some (_ :: _) -> Some (where ^ ": the online monitor reports a violation")
      | _ -> None);
    ]

type extra = {
  steps : int;  (** monitor steps over the pass *)
  injected : int;  (** faults injected over the pass *)
  setup_ns : int;  (** summed over runs; traced passes only *)
  teardown_ns : int;  (** summed over runs; traced passes only *)
  gc0 : Gc.stat;
  gc1 : Gc.stat;
}

(* One pass over every input. With [clock], the clock is re-armed before
   each run so every run's set-up and teardown are read from it. *)
let pass ?prof ?clock ~monitored inputs =
  let commits = ref 0 and aborts = ref 0 and stuck = ref 0 and violations = ref 0 in
  let events = ref 0 and steps = ref 0 in
  let setup = ref 0 and teardown = ref 0 in
  let end_times = ref [] and run_ms = ref [] and problems = ref [] in
  let injected_kinds = Array.make 4 0 in
  let (gc0, gc1), wall_ns, words =
    Call.timed (fun () ->
        let gc0 = Gc.quick_stat () in
        Array.iter
          (fun i ->
            Option.iter (fun c -> Pclock.arm c ~stop:false) clock;
            let t0 = Pclock.now_ns () in
            let r, monitor = run_one ?prof ~monitored i in
            let t1 = Pclock.now_ns () in
            run_ms := (float_of_int (t1 - t0) /. 1e6) :: !run_ms;
            Option.iter
              (fun (c : Pclock.t) ->
                setup := !setup + (c.first_ns - t0);
                teardown := !teardown + (t1 - c.last_ns))
              clock;
            (match r.classification with
            | C.Safe_commit -> incr commits
            | Safe_abort -> incr aborts
            | Stuck -> incr stuck
            | Safety_violation -> incr violations);
            events := !events + r.events;
            end_times := float_of_int r.end_time :: !end_times;
            Array.iteri (fun k n -> injected_kinds.(k) <- injected_kinds.(k) + n) r.injected;
            Option.iter (fun m -> steps := !steps + Obsv.Monitor.steps m) monitor;
            problems := List.rev_append (check r monitor) !problems)
          inputs;
        (gc0, Gc.quick_stat ()))
  in
  let sim p = int_of_float (Perfbench_core.Stats.percentile !end_times ~permille:p) in
  let fingerprint =
    [
      ("commits", !commits);
      ("aborts", !aborts);
      ("stuck", !stuck);
      ("violations", !violations);
      ("events", !events);
      ("end_time_p50", sim 500);
      ("end_time_p99", sim 990);
      ("end_time_sum", int_of_float (List.fold_left ( +. ) 0. !end_times));
      ("drops", injected_kinds.(0));
      ("dups", injected_kinds.(1));
      ("corruptions", injected_kinds.(2));
      ("partition_suppressions", injected_kinds.(3));
    ]
  in
  ( {
      Call.wall_ns;
      words;
      events = !events;
      attempted = Array.length inputs;
      committed = !commits;
      failed = !violations;
      fingerprint;
      problems = List.rev !problems;
      run_ms = List.rev !run_ms;
    },
    {
      steps = !steps;
      injected = Array.fold_left ( + ) 0 injected_kinds;
      setup_ns = !setup;
      teardown_ns = !teardown;
      gc0;
      gc1;
    } )

let call inputs = fst (pass ~monitored:true inputs)

let setup_ns inputs =
  Array.fold_left
    (fun acc i ->
      acc + fst (Pclock.setup_only (fun prof -> run_one ~prof ~monitored:true i)))
    0 inputs

(* The traced run: an unmonitored pass (the monitor's baseline), a
   monitored pass (GC and engine counters), then a monitored pass with
   the profiler on the benchmark's clock. *)
let traced spans ~parent inputs =
  let unmonitored, _ =
    Spans.within spans ~parent ~name:"unmonitored_pass" (fun _ ->
        pass ~monitored:false inputs)
  in
  let counters = Call.read_counters () in
  let sent0 = Call.counter "xchain_messages_sent_total" in
  let monitored, x =
    Spans.within spans ~parent ~name:"monitored_pass" (fun _ -> pass ~monitored:true inputs)
  in
  let counted = Call.counters_since counters in
  let sent = Call.counter "xchain_messages_sent_total" - sent0 in
  let clk = Pclock.create () in
  let prof = Pclock.profiler ~track_depth:true clk in
  (* per-run set-up and teardown are summed into the pass's span: 2000
     runs would otherwise give 6000 tiny spans *)
  let traced =
    Spans.within spans ~parent ~name:"traced_pass" (fun id ->
        let call, tx = pass ~prof ~clock:clk ~monitored:true inputs in
        Spans.set_attrs spans id
          Perfbench_core.Json.
            [
              ("runs", num (float_of_int runs));
              ("setup_ns_sum", num (float_of_int tx.setup_ns));
              ("teardown_ns_sum", num (float_of_int tx.teardown_ns));
            ];
        call)
  in
  let per_run n = float_of_int n /. float_of_int runs in
  let ratio a b = if b = 0 then 0. else float_of_int a /. float_of_int b in
  let depth = clk.depth_max in
  let layer =
    [
      ( "obsv.monitor.step_us",
        float_of_int (monitored.wall_ns - unmonitored.wall_ns) /. 1e3
        /. float_of_int (max 1 x.steps) );
      ( "trace.overhead_ratio",
        float_of_int traced.Call.wall_ns /. float_of_int monitored.wall_ns );
      ("sim.engine.events", float_of_int monitored.events);
      ("sim.network.messages_per_payment", per_run sent);
      ("sim.engine.timers_set_per_payment", per_run counted.timers_set);
      ("sim.engine.timers_stale_share", ratio counted.timers_stale counted.timers_set);
      ("sim.engine.queue_depth_max", float_of_int depth);
      ("faults.injector.injected_per_run", per_run x.injected);
    ]
    @ Profile.engine prof @ Profile.roles prof
    @ Call.gc_metrics x.gc0 x.gc1 ~events:monitored.events
  in
  (monitored, traced, layer, depth, Profile.aggregates prof)
