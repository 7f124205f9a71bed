(* The three [Traffic.Load] workloads: one [Load.run] per timed call. *)

module L = Traffic.Load

(* Sizes are chosen so that one call runs for seconds, not milliseconds:
   long enough that set-up, the engine loop and teardown each show, and
   few enough payments that one host runs every workload in one process
   at a time. *)
let specs =
  [
    ( "linear_open_mixed",
      "payments=10000 hops=2 value=1000 commission=10 arrival=poisson:4 \
       mix=sync:2,weak:2,htlc:1,atomic:1,committee:1 policy=reserve cap=0 \
       liquidity=0 patience=2000 stuck=0 drift=10000 gst=none" );
    ( "routed_split_drain",
      "payments=4000 hops=2 value=1000 commission=10 arrival=closed:64:5 \
       mix=sync:1,weak:1 policy=reserve cap=0 liquidity=0 patience=2000 \
       stuck=0 drift=10000 gst=none topology=sf:10:2:5:2000000 \
       route=round-robin splits=3" );
    ( "committee_burst",
      "payments=2000 hops=2 value=1000 commission=10 arrival=burst:500:3000 \
       mix=shared policy=reserve cap=0 liquidity=0 patience=100000 stuck=0 \
       drift=10000 gst=none committee=majority:16:5:32:4" );
  ]

let workload name =
  Option.map
    (fun line ->
      match Traffic.Workload.of_string line with
      | Ok w -> w
      | Error e -> failwith (name ^ ": " ^ e))
    (List.assoc_opt name specs)

(* Sim-time figures (latency, makespan, commits per Mtick) describe the
   protocol, not the implementation: they sit in the fingerprint only. *)
let fingerprint (r : L.report) =
  [
    ("admitted", r.admitted);
    ("committed", r.committed);
    ("aborted", r.aborted);
    ("rejected", r.rejected);
    ("stuck", r.stuck);
    ("violated", r.violated);
    ("events", r.events);
    ("messages", r.messages);
    ("latency_p50", r.latency_p50);
    ("latency_p99", r.latency_p99);
    ("makespan", r.makespan);
    ("commits_per_mtick", r.throughput_cpm);
  ]

let problems (r : L.report) =
  List.filter_map Fun.id
    [
      (if r.violated > 0 then
         Some (Printf.sprintf "%d payments violated safety" r.violated)
       else None);
      (if r.conservation_ok then None else Some "conservation audit dirty");
      (if r.status = "quiescent" then None
       else Some ("engine stopped " ^ r.status));
    ]

let to_call (w : Traffic.Workload.t) (r : L.report) ~wall_ns ~words =
  {
    Call.wall_ns;
    words;
    events = r.events;
    attempted = w.payments;
    committed = r.committed;
    failed = r.violated + r.stuck;
    fingerprint = fingerprint r;
    problems = problems r;
    run_ms = [ float_of_int wall_ns /. 1e6 ];
  }

let call w ~seed =
  let r, wall_ns, words = Call.timed (fun () -> L.run ~workload:w ~seed ()) in
  to_call w r ~wall_ns ~words

let setup_ns w ~seed =
  fst (Pclock.setup_only (fun prof -> L.run ~prof ~workload:w ~seed ()))

(* The traced run: one untraced call (GC and engine counters), then one
   call with the profiler on the benchmark's clock. *)
let traced spans ~parent w ~seed =
  let counters = Call.read_counters () in
  let untraced, r, gc0, gc1 =
    Spans.within spans ~parent ~name:"untraced_call" (fun _ ->
        let (r, gc0, gc1), wall_ns, words =
          Call.timed (fun () ->
              let gc0 = Gc.quick_stat () in
              let r = L.run ~workload:w ~seed () in
              (r, gc0, Gc.quick_stat ()))
        in
        (to_call w r ~wall_ns ~words, r, gc0, gc1))
  in
  let counted = Call.counters_since counters in
  let clk = Pclock.create () in
  Pclock.arm clk ~stop:false;
  let prof = Pclock.profiler ~track_depth:true clk in
  Gc.full_major ();
  let t_enter = Pclock.now_ns () and w_enter = Pclock.minor_words () in
  let rt = L.run ~prof ~workload:w ~seed () in
  let t_ret = Pclock.now_ns () in
  let traced =
    to_call w rt ~wall_ns:(t_ret - t_enter) ~words:(Pclock.minor_words () - w_enter)
  in
  let call_id =
    Spans.add spans ~parent ~name:"traced_call" ~start_ns:t_enter ~end_ns:t_ret
  in
  Profile.phases spans ~parent:call_id ~t_enter ~t_ret clk;
  let payments = float_of_int w.payments in
  let per_payment n = float_of_int n /. payments in
  let ratio a b = if b = 0 then 0. else float_of_int a /. float_of_int b in
  let depth = clk.depth_max in
  let layer =
    [
      ("traffic.load.setup_ms", float_of_int (clk.first_ns - t_enter) /. 1e6);
      ("traffic.load.setup_words", float_of_int (clk.first_words - w_enter));
      ("traffic.load.teardown_ms", float_of_int (t_ret - clk.last_ns) /. 1e6);
      ( "trace.overhead_ratio",
        float_of_int traced.wall_ns /. float_of_int untraced.wall_ns );
      ("sim.engine.events", float_of_int r.events);
      ("sim.network.messages_per_payment", per_payment r.messages);
      ("sim.engine.timers_set_per_payment", per_payment counted.timers_set);
      ("sim.engine.timers_stale_share", ratio counted.timers_stale counted.timers_set);
      ("sim.engine.queue_depth_max", float_of_int depth);
    ]
    @ Profile.engine prof @ Profile.roles prof
    @ Call.gc_metrics gc0 gc1 ~events:r.events
    @ (match r.committee_stats with
      | None -> []
      | Some c ->
          [
            ("consensus.rounds_per_cert", ratio c.rounds c.certs);
            ("quorum.committee.verdicts_per_cert", ratio c.verdicts c.certs);
          ])
    @
    match r.routing with
    | None -> []
    | Some g -> [ ("routing.router.paths_per_payment", ratio g.paths_selected r.admitted) ]
  in
  (untraced, traced, layer, depth, Profile.aggregates prof)
