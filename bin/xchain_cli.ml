(* Command-line front end.

   xchain pay         — run one payment and report outcome + properties
   xchain experiment  — regenerate the reproduction tables (e1..e14, all)
   xchain params      — show the derived timeout windows (Thm 1 tuning)
   xchain dot         — emit the Figure 2 automata as Graphviz
   xchain audit       — one payment's full postmortem, Byzantine --fault
   xchain deal        — a §5 cross-chain deal and its properties
   xchain chaos       — one run under a fault plan, or a soak of many
   xchain hunt        — coverage-guided fault-plan search with shrinking
   xchain explore     — exhaustive corner sweep, sharded over -j domains
   xchain trace       — one payment's causal graph and latency blame
   xchain load        — concurrent payments over shared liquidity
   xchain committee   — shared notary-committee sweep
   xchain route       — payment-graph path and liquidity analysis
   xchain profile     — a load/chaos/explore workload under the profiler
   xchain metrics     — the telemetry catalogue / a probe-run exposition

   docs/observability.md tabulates which telemetry and observer flags
   each subcommand takes. Every input a command rejects exits 2 with one
   "xchain CMD: ..." line on stderr ([die]); a value cmdliner cannot
   parse at all exits 124. *)

open Cmdliner
open Protocols

(* ------------------------------- errors -------------------------------- *)

let die ~cmd fmt =
  Fmt.kstr
    (fun s ->
      Fmt.epr "xchain %s: %s@." cmd s;
      exit 2)
    fmt

let require ~cmd ok msg = if not ok then die ~cmd "%s" msg

(* a flag value through its parser, or a usage error naming the flag *)
let parse_arg ~cmd what f s =
  match f s with Ok v -> v | Error e -> die ~cmd "bad %s: %s" what e

(* Library entry points reject what the CLI cannot pre-validate (a plan
   pid past the protocol's real process count, which includes any TM
   pids; a corner budget) with Invalid_argument. Turn that into a usage
   error instead of a crash. *)
let surface_invalid ~cmd f =
  match f () with
  | v -> v
  | exception Invalid_argument e ->
      let e =
        let prefix = "Runner.run: " in
        if String.starts_with ~prefix e then
          String.sub e (String.length prefix)
            (String.length e - String.length prefix)
        else e
      in
      die ~cmd "%s" e

(* ----------------------------- telemetry ------------------------------- *)

(* pay, experiment, audit and load take --metrics-out and --spans-out;
   chaos, hunt, explore, committee and route take --metrics-out only. "-"
   writes to stdout (after the human-readable report). Span capture is
   enabled only when a sink was requested, so bulk commands (experiment)
   don't accumulate spans nobody will read. *)

let metrics_out_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "metrics-out" ] ~docv:"FILE"
        ~doc:
          "Write the metrics registry as Prometheus text exposition to \
           $(docv) after the run ('-' for stdout). See docs/observability.md \
           for the metric catalogue.")

let spans_out_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "spans-out" ] ~docv:"FILE"
        ~doc:
          "Write payment/deal spans as JSON lines to $(docv) after the run \
           ('-' for stdout). One object per span; root spans carry the \
           commit/abort status.")

let write_sink path content =
  match path with
  | None -> ()
  | Some "-" -> print_string content
  | Some file -> (
      try
        let oc = open_out file in
        output_string oc content;
        close_out oc
      with Sys_error msg ->
        Fmt.epr "xchain: cannot write telemetry: %s@." msg;
        exit 2)

let write_lines path lines =
  write_sink path (String.concat "" (List.map (fun l -> l ^ "\n") lines))

let arm_span_capture spans_out =
  Obsv.Span.set_capture Obsv.Span.default (spans_out <> None)

let dump_telemetry ~metrics_out ~spans_out =
  write_sink metrics_out (Obsv.Prometheus.render Obsv.Metrics.default);
  write_sink spans_out (Obsv.Span.to_jsonl Obsv.Span.default)

let per_sec n wall_ns = int_of_float (float_of_int n /. (float_of_int wall_ns /. 1e9))

(* ------------------------------- fleet --------------------------------- *)

(* The soak/sweep/replication commands shard their independent runs over a
   fleet of OCaml domains. Results are merged in job order, so every
   deterministic output is byte-identical for any -j value. *)

let jobs_arg =
  Arg.(
    value & opt int 0
    & info [ "j"; "jobs" ] ~docv:"N"
        ~doc:
          "Shard the work over $(docv) OCaml domains (0 = auto: the \
           XCHAIN_FLEET_JOBS environment variable if set, else the \
           runtime's recommended domain count). Every deterministic output \
           is byte-identical for any value; only wall-clock timing changes. \
           See docs/parallelism.md.")

let resolve_domains ~cmd j =
  require ~cmd (j >= 0) "-j must be >= 0";
  if j = 0 then Fleet.default_domains () else j

(* the trailing, strippable timing block of a fleet-sharded JSON report *)
let timing_json ~events (stats : Fleet.stats) =
  Printf.sprintf "\"timing\":{\"wall_ns\":%d,\"domains\":%d,\"events_per_sec\":%d}"
    stats.Fleet.wall_ns stats.Fleet.domains (per_sec events stats.Fleet.wall_ns)

(* Live progress on stderr, only when someone is watching: piped runs
   (cram, CI) see nothing, so transcripts stay deterministic. *)
let tty_progress label =
  if Unix.isatty Unix.stderr then
    Some
      (fun ~completed ~total ->
        Printf.eprintf "\r%s: %d/%d%!" label completed total;
        if completed >= total then prerr_newline ())
  else None

(* ----------------------------- common args ----------------------------- *)

let protocol_conv =
  let parse = function
    | "sync" -> Ok `Sync
    | "naive" -> Ok `Naive
    | "htlc" -> Ok `Htlc
    | "weak" -> Ok `Weak
    | "committee" -> Ok `Committee
    | s -> Error (`Msg (Printf.sprintf "unknown protocol %S" s))
  in
  let print ppf p =
    Fmt.string ppf
      (match p with
      | `Sync -> "sync"
      | `Naive -> "naive"
      | `Htlc -> "htlc"
      | `Weak -> "weak"
      | `Committee -> "committee")
  in
  Arg.conv (parse, print)

let protocol_arg ?(doc = "Protocol: sync | naive | htlc | weak | committee.") () =
  Arg.(value & opt protocol_conv `Sync & info [ "p"; "protocol" ] ~docv:"PROTO" ~doc)

let runner_protocol_of = function
  | `Sync -> Runner.Sync_timebound
  | `Naive -> Runner.Naive_universal
  | `Htlc -> Runner.Htlc
  | `Weak -> Runner.Weak Weak_protocol.default_config
  | `Committee ->
      Runner.Weak
        { Weak_protocol.default_config with
          tm = Weak_protocol.Committee { f = 1 } }

let runner_protocol_arg ?doc () =
  Term.(const runner_protocol_of $ protocol_arg ?doc ())

(* --hops for every command that takes it: a chain needs an escrow *)
let hops_arg ~cmd ?(doc = "Escrows.") default =
  let check hops =
    if hops < 1 then die ~cmd "--hops must be >= 1 (got %d)" hops;
    hops
  in
  Term.(const check $ Arg.(value & opt int default & info [ "n"; "hops" ] ~doc))

let seed_arg ?(doc = "Schedule seed.") default =
  Arg.(value & opt int default & info [ "seed" ] ~doc)

let gst_arg ?(doc = "Partial synchrony with this GST (default: synchronous).") () =
  Arg.(value & opt (some int) None & info [ "gst" ] ~doc)

let runner_network = function
  | None -> Runner.Sync
  | Some gst -> Runner.Psync { gst }

(* --- fault plans (chaos / load / trace) --- *)

let plan_file_arg =
  Arg.(value & opt (some string) None
       & info [ "plan-file" ] ~docv:"FILE"
           ~doc:"Read the fault plan from $(docv) (overrides --plan).")

let read_plan ~cmd ?plan_file plan =
  let parse ~what s =
    parse_arg ~cmd (Printf.sprintf "fault plan (%s)" what)
      Faults.Fault_plan.of_string s
  in
  match (plan_file, plan) with
  | Some file, _ -> (
      match In_channel.with_open_text file In_channel.input_all with
      | contents -> parse ~what:file (String.trim contents)
      | exception Sys_error msg -> die ~cmd "cannot read plan file: %s" msg)
  | None, Some s -> parse ~what:"--plan" s
  | None, None -> Faults.Fault_plan.none

(* ------------------------------ observers ------------------------------ *)

let trace_out_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "trace-out" ] ~docv:"FILE"
        ~doc:
          "Write the run's happens-before graph as Chrome trace-event JSON \
           to $(docv) ('-' for stdout) — load it in chrome://tracing or \
           Perfetto. One track per engine pid; message transits are flow \
           arrows. Byte-identical across reruns with equal inputs.")

let dag_out_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "dag-out" ] ~docv:"FILE"
        ~doc:
          "Write the happens-before DAG as JSON lines to $(docv) ('-' for \
           stdout): one node per line with its incoming edges, joinable \
           against --spans-out rows by trace/root_event id.")

let blame_arg =
  Arg.(
    value & flag
    & info [ "blame" ]
        ~doc:
          "Print the critical-path blame breakdown: end-to-end latency \
           decomposed into queueing / transit / gst_wait / timeout / \
           downtime / processing, summing exactly to the observed total.")

let profile_flag =
  Arg.(
    value & flag
    & info [ "profile" ]
        ~doc:
          "Profile engine dispatch (wall time + minor-heap allocation per \
           payment x process x event kind) and print the hot-site table \
           after the run. See docs/observability.md, section Profiling.")

let profile_out_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "profile-out" ] ~docv:"FILE"
        ~doc:
          "Write the JSON profile report to $(docv) ('-' for stdout). \
           Deterministic except the flat \"prof_timing\" objects (host \
           wall clock), which scripts/strip_timing.py removes.")

let collapsed_out_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "collapsed-out" ] ~docv:"FILE"
        ~doc:
          "Write the profile as collapsed stacks (payment;process;kind \
           wall_ns) to $(docv) ('-' for stdout) — load it in speedscope \
           or feed it to flamegraph.pl.")

let monitor_flag =
  Arg.(
    value & flag
    & info [ "monitor" ]
        ~doc:
          "Arm the online runtime monitor: the safety subset is re-checked \
           after every engine dispatch, so the run reports the exact \
           sim-time of first breach. The final verdict always agrees with \
           the post-hoc report. See docs/observability.md, section Runtime \
           verification.")

let stop_on_violation_flag =
  Arg.(
    value & flag
    & info [ "stop-on-violation" ]
        ~doc:
          "End the run at the first safety breach (implies --monitor): the \
           engine exits with status violation-stop at the exact sim-time \
           the monitor tripped.")

let series_out_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "series-out" ] ~docv:"FILE"
        ~doc:
          "Sample sim-time telemetry (queue depth, in-flight work, \
           per-escrow liquidity) on a fixed interval and write the series \
           as JSON lines to $(docv) ('-' for stdout). Deterministic.")

let bundle_out_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "bundle-out" ] ~docv:"FILE"
        ~doc:
          "On a safety violation or a stuck run, write the forensic \
           flight-recorder bundle — first breach, the last events before \
           it, a causal-DAG slice, a metrics snapshot and the one-line \
           repro — as JSON to $(docv) ('-' for stdout). Deterministic: \
           replaying the repro reproduces the bundle byte for byte.")

(* The run-observer flags chaos and load share. *)
type observe = {
  trace_out : string option;
  dag_out : string option;
  blame : bool;
  profile : bool;
  profile_out : string option;
  collapsed_out : string option;
  monitor : bool;
  stop_on_violation : bool;
  series_out : string option;
  bundle_out : string option;
}

let observe_term =
  let make trace_out dag_out blame profile profile_out collapsed_out monitor
      stop_on_violation series_out bundle_out =
    { trace_out; dag_out; blame; profile; profile_out; collapsed_out;
      monitor; stop_on_violation; series_out; bundle_out }
  in
  Term.(const make $ trace_out_arg $ dag_out_arg $ blame_arg $ profile_flag
        $ profile_out_arg $ collapsed_out_arg $ monitor_flag
        $ stop_on_violation_flag $ series_out_arg $ bundle_out_arg)

let observing o =
  o.blame || o.profile || o.monitor || o.stop_on_violation
  || List.exists Option.is_some
       [ o.trace_out; o.dag_out; o.profile_out; o.collapsed_out; o.series_out;
         o.bundle_out ]

(* The observers one run carries. *)
type observers = {
  causal : Obsv.Causal.t option;
  prof : Obsv.Prof.t option;
  mon : Obsv.Monitor.t option;
  sampler : Obsv.Sampler.t option;
  recorder : Obsv.Recorder.t option;
}

(* Which flag arms which observer. A bundle needs the monitor's first
   breach, the flight-recorder ring and a causal-DAG slice;
   --stop-on-violation needs the monitor; any causal sink arms tracing
   and any profile sink the profiler. *)
let arm o =
  let bundle = o.bundle_out <> None in
  let armed wanted create = if wanted then Some (create ()) else None in
  {
    causal =
      armed (bundle || o.blame || o.trace_out <> None || o.dag_out <> None)
        Obsv.Causal.create;
    prof =
      armed (o.profile || o.profile_out <> None || o.collapsed_out <> None)
        (fun () -> Obsv.Prof.create ~now_ns:Fleet.now_ns ());
    mon =
      armed (bundle || o.monitor || o.stop_on_violation) (fun () ->
          Obsv.Monitor.create ~stop_on_violation:o.stop_on_violation ());
    sampler = armed (o.series_out <> None) (fun () -> Obsv.Sampler.create ());
    recorder = armed bundle (fun () -> Obsv.Recorder.create ());
  }

let dump_causal c ~trace_out ~dag_out ~payments =
  write_sink trace_out (Obsv.Causal.to_chrome ~payments c);
  write_sink dag_out (Obsv.Causal.to_jsonl c)

let dump_prof ?(top = 15) ~table prof ~profile_out ~collapsed_out =
  Option.iter
    (fun p ->
      if table then Fmt.pr "%a" (Obsv.Prof.pp_top ~n:top) p;
      write_sink profile_out (Obsv.Prof.to_json p);
      write_sink collapsed_out (Obsv.Prof.to_collapsed p))
    prof

(* Everything an observed run writes once it ends, in this order: the
   monitor verdict, the series, the bundle ([bundle] returns one only for
   a run that failed), the blame report with the causal exports, and the
   profile. *)
let write_observed o w ~bundle ~blame ~payments =
  Option.iter
    (fun m ->
      match Obsv.Monitor.first_trip m with
      | Some tr ->
          Fmt.pr "monitor: first breach %s at t=%d: %s@."
            tr.Obsv.Monitor.property tr.Obsv.Monitor.at
            tr.Obsv.Monitor.detail
      | None ->
          Fmt.pr "monitor: clean after %d steps@." (Obsv.Monitor.steps m))
    w.mon;
  Option.iter (fun s -> write_sink o.series_out (Obsv.Sampler.to_jsonl s)) w.sampler;
  (match (w.recorder, w.mon) with
  | Some recorder, Some monitor ->
      Option.iter (write_sink o.bundle_out) (bundle ~monitor ~recorder)
  | _ -> ());
  Option.iter
    (fun c ->
      if o.blame then blame c;
      dump_causal c ~trace_out:o.trace_out ~dag_out:o.dag_out
        ~payments:(payments c))
    w.causal;
  dump_prof ~table:o.profile w.prof ~profile_out:o.profile_out
    ~collapsed_out:o.collapsed_out

(* a single payment's blame report: root is the run's first causal node
   (the initial on_start send at t=0) *)
let print_payment_blame c ~delta ~sink =
  if Obsv.Causal.node_count c = 0 || sink < 0 then
    Fmt.pr "blame: no settlement sink recorded (payment never paid out)@."
  else begin
    let r = Obsv.Blame.attribute ~delta c ~root:0 ~sink in
    Fmt.pr "%a@." Obsv.Blame.pp_report r;
    Fmt.pr "critical path:@.%a@." (Obsv.Blame.pp_path c) r
  end

(* Soak and hunt ship the forensic bundle of their first violation by
   replaying its (seed, plan) with the full watch armed: same inputs, so
   the replay is the violating run, bit for bit. *)
let replay_bundle ~hops ~protocol ~bundle_out first =
  match (bundle_out, first) with
  | Some _, Some (seed, plan) ->
      let monitor = Obsv.Monitor.create () in
      let recorder = Obsv.Recorder.create () in
      let causal = Obsv.Causal.create () in
      let r =
        Xchain.Chaos.run_one ~hops ~protocol ~causal ~monitor ~recorder ~plan
          ~seed ()
      in
      write_sink bundle_out (Xchain.Chaos.bundle ~causal ~monitor ~recorder r)
  | _ -> ()

(* ------------------------------- pay ---------------------------------- *)

let pay_cmd =
  let run protocol hops value commission drift gst patience seed trace_wanted
      jsonl_wanted metrics_out spans_out =
    arm_span_capture spans_out;
    let network =
      match gst with
      | None -> Xchain.Api.Synchronous
      | Some gst -> Xchain.Api.Partially_synchronous { gst }
    in
    let protocol =
      match protocol with
      | `Sync -> Xchain.Api.Time_bounded
      | `Naive -> Xchain.Api.Naive
      | `Htlc -> Xchain.Api.Htlc_chain
      | `Weak -> Xchain.Api.Weak_single { patience }
      | `Committee -> Xchain.Api.Weak_committee { patience; f = 1 }
    in
    let result =
      surface_invalid ~cmd:"pay" (fun () ->
          Xchain.Api.pay ~hops ~value ~commission ~drift_ppm:drift ~network
            ~protocol ~seed ())
    in
    Fmt.pr "%a@." Xchain.Api.pp_result result;
    if trace_wanted then
      Fmt.pr "@.trace:@.%a@."
        (Sim.Trace.pp ~msg:Msg.pp ~obs:Obs.pp)
        result.Xchain.Api.outcome.Runner.trace;
    if jsonl_wanted then
      print_string
        (Sim.Trace.to_jsonl
           ~msg:(Fmt.str "%a" Msg.pp)
           ~obs:(Fmt.str "%a" Obs.pp)
           result.Xchain.Api.outcome.Runner.trace);
    dump_telemetry ~metrics_out ~spans_out;
    if result.Xchain.Api.all_properties_hold then 0 else 1
  in
  let value = Arg.(value & opt int 1000 & info [ "value" ] ~doc:"Amount Bob is owed.") in
  let commission =
    Arg.(value & opt int 10 & info [ "commission" ] ~doc:"Per-connector commission.")
  in
  let drift =
    Arg.(value & opt int 10_000 & info [ "drift-ppm" ] ~doc:"Clock drift in ppm.")
  in
  let patience =
    Arg.(value & opt int 20_000 & info [ "patience" ] ~doc:"Weak-protocol patience.")
  in
  let trace =
    Arg.(value & flag & info [ "trace" ] ~doc:"Print the full event trace.")
  in
  let jsonl =
    Arg.(value & flag
         & info [ "trace-jsonl" ]
             ~doc:"Print the trace as JSON lines (machine-readable).")
  in
  Cmd.v
    (Cmd.info "pay" ~doc:"Run one cross-chain payment and check the paper's properties")
    Term.(
      const run $ protocol_arg ()
      $ hops_arg ~cmd:"pay" ~doc:"Number of escrows." 2
      $ value $ commission $ drift $ gst_arg () $ patience $ seed_arg 1 $ trace
      $ jsonl $ metrics_out_arg $ spans_out_arg)

(* ---------------------------- experiment ------------------------------- *)

let experiment_cmd =
  let run name full j metrics_out spans_out =
    arm_span_capture spans_out;
    let scale = if full then Xchain.Experiments.Full else Xchain.Experiments.Quick in
    let domains = resolve_domains ~cmd:"experiment" j in
    (match name with
    | "all" ->
        List.iter
          (fun t -> Fmt.pr "%a@." Xchain.Table.render t)
          (Xchain.Experiments.all ~domains scale)
    | "e12" ->
        (* the one experiment with a fleet-sharded inner loop, so the
           named path must forward -j like the "all" path does *)
        Fmt.pr "%a@." Xchain.Table.render
          (Xchain.Experiments.e12_exhaustive_corners ~domains scale)
    | name -> (
        match Xchain.Experiments.by_name name with
        | Some f -> Fmt.pr "%a@." Xchain.Table.render (f scale)
        | None ->
            die ~cmd:"experiment" "unknown experiment %S (use e1..e14 or all)"
              name));
    dump_telemetry ~metrics_out ~spans_out;
    0
  in
  let name_arg =
    Arg.(value & pos 0 string "all"
         & info [] ~docv:"NAME" ~doc:"Experiment name (e1..e12) or 'all'.")
  in
  let full =
    Arg.(value & flag
         & info [ "full" ] ~doc:"Full sample sizes (400 runs/config) instead of quick.")
  in
  Cmd.v
    (Cmd.info "experiment" ~doc:"Regenerate the reproduction tables (see EXPERIMENTS.md)")
    Term.(const run $ name_arg $ full $ jobs_arg $ metrics_out_arg
          $ spans_out_arg)

(* ------------------------------ params --------------------------------- *)

let params_cmd =
  let run hops delta sigma drift margin =
    let p =
      surface_invalid ~cmd:"params" (fun () ->
          Params.derive { Params.hops; delta; sigma; drift_ppm = drift; margin })
    in
    Fmt.pr "%a@." Params.pp p;
    (match Params.check p with
    | Ok () ->
        Fmt.pr "recurrence check: ok@.";
        0
    | Error e ->
        Fmt.pr "recurrence check: %s@." e;
        1)
  in
  let delta = Arg.(value & opt int 100 & info [ "delta" ] ~doc:"Message delay bound.") in
  let sigma = Arg.(value & opt int 10 & info [ "sigma" ] ~doc:"Computation bound.") in
  let drift = Arg.(value & opt int 10_000 & info [ "drift-ppm" ] ~doc:"Clock drift, ppm.") in
  let margin = Arg.(value & opt int 5 & info [ "margin" ] ~doc:"Safety margin, ticks.") in
  Cmd.v
    (Cmd.info "params" ~doc:"Derive the a/d timeout windows (the Thm 1 fine-tuning)")
    Term.(const run $ hops_arg ~cmd:"params" 3 $ delta $ sigma $ drift $ margin)

(* ------------------------------- audit --------------------------------- *)

(* --fault specs (audit / chaos): "strategy@role", e.g. "thief-escrow@e0",
   "mute@bob", "forge-chi@chloe2"; role indices are checked against the
   chain *)
let parse_faults ~cmd ~hops specs =
  let topo = Topology.create ~hops in
  let parse spec =
    match String.split_on_char '@' spec with
    | [ strat; role ] ->
        let indexed ~prefix ~what ~last pid =
          let k = String.length prefix in
          match int_of_string_opt (String.sub role k (String.length role - k)) with
          | Some i when i >= 0 && i <= last -> pid topo i
          | _ -> die ~cmd "fault %S: %s index must be 0..%d" spec what last
        in
        let pid =
          match role with
          | "alice" -> Topology.alice topo
          | "bob" -> Topology.bob topo
          | r when String.length r > 5 && String.sub r 0 5 = "chloe" ->
              indexed ~prefix:"chloe" ~what:"customer" ~last:hops Topology.customer
          | r when String.length r > 1 && r.[0] = 'e' ->
              indexed ~prefix:"e" ~what:"escrow" ~last:(hops - 1) Topology.escrow
          | r -> die ~cmd "unknown role %S" r
        in
        let strategy =
          match strat with
          | "crash" -> Byzantine.Crash_at_start
          | "mute" -> Byzantine.Mute
          | "thief-escrow" -> Byzantine.Thief_escrow
          | "premature-refund" -> Byzantine.Premature_refund_escrow
          | "no-resolve" -> Byzantine.No_resolve_escrow
          | "eager-chi" -> Byzantine.Eager_chi_bob
          | "withhold-chi" -> Byzantine.Withhold_chi_bob
          | "forge-chi" -> Byzantine.Forge_chi_connector
          | "double-money" -> Byzantine.Double_money_customer
          | "never-deposit" -> Byzantine.Never_deposit
          | "false-funded" -> Byzantine.False_funded_escrow
          | s -> die ~cmd "unknown strategy %S" s
        in
        (pid, strategy)
    | _ -> die ~cmd "fault %S is not strategy@role" spec
  in
  List.map parse specs

let audit_cmd =
  let cmd = "audit" in
  let run protocol hops gst seed fault_specs metrics_out spans_out =
    arm_span_capture spans_out;
    let faults = parse_faults ~cmd ~hops fault_specs in
    let cfg =
      { (Runner.default_config ~hops ~seed) with
        network = runner_network gst;
        faults }
    in
    let outcome = surface_invalid ~cmd (fun () -> Runner.run cfg protocol) in
    let report = Xchain.Report.build outcome in
    Fmt.pr "%a@." Xchain.Report.pp report;
    dump_telemetry ~metrics_out ~spans_out;
    if Props.Verdict.all_hold report.Xchain.Report.verdicts then 0 else 1
  in
  let faults =
    Arg.(value & opt_all string []
         & info [ "fault" ] ~docv:"STRATEGY@ROLE"
             ~doc:"Byzantine substitution, e.g. thief-escrow AT e0 (strategy@role), mute AT bob;                    repeatable.")
  in
  Cmd.v
    (Cmd.info "audit"
       ~doc:"Run a payment and print the full postmortem (verdicts, promise              breaches, Figure 2 conformance)")
    Term.(const run $ runner_protocol_arg () $ hops_arg ~cmd 3
          $ gst_arg ~doc:"Partial synchrony with this GST." ()
          $ seed_arg 1 $ faults $ metrics_out_arg $ spans_out_arg)

(* ------------------------------- metrics ------------------------------- *)

(* Populate the registry with one probe run of each workload family so the
   exposition lists every metric family the binary can emit, then print
   either the catalogue (default) or the full exposition.  Span capture is
   left off during the probes: the catalogue is about metric names, and the
   probe spans would only add noise to --spans-out users. *)
let metrics_cmd =
  let run full =
    Obsv.Span.set_capture Obsv.Span.default false;
    let silently f =
      (* Probe runs must not print their own reports. *)
      ignore (f ())
    in
    silently (fun () ->
        Runner.run (Runner.default_config ~hops:3 ~seed:1) Runner.Sync_timebound);
    silently (fun () ->
        Runner.run
          { (Runner.default_config ~hops:3 ~seed:1) with
            network = Runner.Psync { gst = 150 } }
          (Runner.Weak
             { Weak_protocol.default_config with
               tm = Weak_protocol.Committee { f = 1 } }));
    silently (fun () ->
        Deals.Deal_runner.run
          (Deals.Deal_runner.default_config
             (Deals.Deal.two_party_swap ())
             Deals.Deal_runner.Timelock));
    silently (fun () ->
        (* a routed load registers the xchain_load_* / xchain_route_*
           families the linear probes never touch *)
        let topology =
          match Routing.Topology.of_string "hub:3:3000:5" with
          | Ok t -> Some t
          | Error _ -> assert false
        in
        Traffic.Load.run
          ~workload:
            { (Traffic.Workload.default ~payments:4) with
              Traffic.Workload.topology;
              splits = 2;
            }
          ~seed:1 ());
    if full then print_string (Obsv.Prometheus.render Obsv.Metrics.default)
    else begin
      Fmt.pr "# metric families registered after probe workloads@.";
      List.iter
        (fun (name, kind, help) -> Fmt.pr "%-42s %-9s %s@." name kind help)
        (Obsv.Metrics.families Obsv.Metrics.default)
    end;
    0
  in
  let full =
    Arg.(value & flag
         & info [ "full" ]
             ~doc:"Print the full Prometheus exposition (per-label samples)                    instead of the family catalogue.")
  in
  Cmd.v
    (Cmd.info "metrics"
       ~doc:"List every telemetry metric the simulator can emit (runs small               probe workloads to populate the registry)")
    Term.(const run $ full)

(* -------------------------------- deal --------------------------------- *)

let deal_cmd =
  let cmd = "deal" in
  let run which protocol gst seed lazy_party =
    let deal =
      match which with
      | "swap" -> Deals.Deal.two_party_swap ()
      | "cycle" -> Deals.Deal.three_cycle ()
      | "broker" -> Deals.Deal.broker_dag ()
      | "disconnected" -> Deals.Deal.disconnected_pair ()
      | other ->
          die ~cmd "unknown deal %S (swap | cycle | broker | disconnected)"
            other
    in
    let proto =
      match protocol with
      | "timelock" -> Deals.Deal_runner.Timelock
      | "cbc" -> Deals.Deal_runner.Cbc
      | other -> die ~cmd "unknown protocol %S (timelock | cbc)" other
    in
    Option.iter
      (fun p ->
        let last = Deals.Deal.parties deal - 1 in
        if p < 0 || p > last then
          die ~cmd "--lazy %d: the %s deal has parties 0..%d" p which last)
      lazy_party;
    let cfg =
      { (Deals.Deal_runner.default_config deal proto) with gst; seed }
    in
    let outcome =
      match lazy_party with
      | None -> Deals.Deal_runner.run cfg
      | Some p ->
          Deals.Deal_byzantine.run_with_faults cfg
            ~faults:[ (p, Deals.Deal_byzantine.Lazy_claim) ]
    in
    Fmt.pr "%a@.well-formed: %b@." Deals.Deal.pp deal
      (Deals.Deal.well_formed deal);
    List.iter
      (fun v -> Fmt.pr "%a@." Deals.Deal_props.pp v)
      (Deals.Deal_props.all outcome);
    List.iter
      (fun p ->
        Fmt.pr "party %d: gained %a, lost %a@." p Ledger.Asset.Bag.pp
          (Deals.Deal_runner.gained outcome p)
          Ledger.Asset.Bag.pp
          (Deals.Deal_runner.lost outcome p))
      (List.init (Deals.Deal.parties deal) Fun.id);
    if Deals.Deal_props.all_hold (Deals.Deal_props.all outcome) then 0 else 1
  in
  let which =
    Arg.(value & pos 0 string "swap"
         & info [] ~docv:"DEAL" ~doc:"swap | cycle | broker | disconnected.")
  in
  let protocol =
    Arg.(value & opt string "timelock"
         & info [ "p"; "protocol" ] ~doc:"timelock | cbc.")
  in
  let lazy_party =
    Arg.(value & opt (some int) None
         & info [ "lazy" ] ~docv:"PARTY"
             ~doc:"Substitute this party with the lazy-claim Byzantine                    strategy.")
  in
  Cmd.v
    (Cmd.info "deal"
       ~doc:"Run a Herlihy-Liskov-Shrira cross-chain deal (§5) and check its              properties")
    Term.(const run $ which $ protocol
          $ gst_arg ~doc:"Partial synchrony with this GST." ()
          $ seed_arg 11 $ lazy_party)

(* --- graph topologies (chaos / hunt / load / route) --- *)

let topology_conv =
  let parse s =
    Result.map_error (fun e -> `Msg e) (Routing.Topology.of_string s)
  in
  Arg.conv (parse, Routing.Topology.pp)

let topology_arg ~extra =
  Arg.(value & opt (some topology_conv) None
       & info [ "topology" ] ~docv:"SPEC"
           ~doc:
             ("Payment graph to route over: linear:H | hub:K | er:N:E:SEED \
               | sf:N:D:SEED | graph:N;U>V:LIQ:COMM,... (see \
               docs/routing.md). " ^ extra))

(* chaos and hunt study one payment at a time, so a graph reduces to the
   single path the router would pick for it at full liquidity: the run's
   hop count becomes that path's length. *)
let hops_of_topology ~cmd ~value ~hops = function
  | None -> hops
  | Some topo ->
      let router = Routing.Router.create topo in
      let avail e = Routing.Topology.capacity topo.Routing.Topology.edges.(e) in
      (match Routing.Router.route router ~avail ~value ~max_splits:1 with
      | Ok (s :: _) -> List.length s.Routing.Router.path
      | Ok [] -> assert false (* route never returns an empty split list *)
      | Error e -> die ~cmd "--topology: %s" e)

(* -------------------------------- chaos -------------------------------- *)

let chaos_cmd =
  let cmd = "chaos" in
  let run protocol hops topology seed plan plan_file soak runs j out repro_out
      metrics_out fault_specs o =
    let hops = hops_of_topology ~cmd ~value:1000 ~hops topology in
    require ~cmd (out = None || soak) "--out requires --soak";
    require ~cmd
      (not (soak && (o.stop_on_violation || o.series_out <> None || fault_specs <> [])))
      "--soak is incompatible with --stop-on-violation/--series-out/--fault \
       (replay a single run from its repro line for per-run telemetry)";
    let faults = parse_faults ~cmd ~hops fault_specs in
    let plan = read_plan ~cmd ?plan_file plan in
    let w = arm o in
    let code =
      if soak then begin
        let domains = resolve_domains ~cmd j in
        require ~cmd (runs >= 0) "--runs must be >= 0";
        (* live tty health line: outcome taxonomy instead of a bare
           completion count, only when the monitor is armed *)
        let on_health =
          if o.monitor && Unix.isatty Unix.stderr then
            Some
              (fun (h : Xchain.Chaos.health) ->
                Printf.eprintf
                  "\rchaos soak: %d/%d commit:%d abort:%d stuck:%d \
                   violation:%d%!"
                  h.Xchain.Chaos.h_done h.Xchain.Chaos.h_total
                  h.Xchain.Chaos.h_commits h.Xchain.Chaos.h_aborts
                  h.Xchain.Chaos.h_stuck h.Xchain.Chaos.h_violations;
                if h.Xchain.Chaos.h_done >= h.Xchain.Chaos.h_total then
                  prerr_newline ())
          else None
        in
        let on_progress =
          if on_health <> None then None else tty_progress "chaos soak"
        in
        let s =
          Xchain.Chaos.soak ~hops ~protocol ~runs ~seed ~domains ?prof:w.prof
            ~monitor:o.monitor ?on_progress ?on_health ()
        in
        Fmt.pr "%a@." Xchain.Chaos.pp_summary s;
        dump_prof ~table:o.profile w.prof ~profile_out:o.profile_out
          ~collapsed_out:o.collapsed_out;
        write_sink out (Xchain.Chaos.summary_to_json ~hops ~protocol ~seed s);
        write_lines repro_out
          (List.map Xchain.Chaos.repro_line s.Xchain.Chaos.violations);
        replay_bundle ~hops ~protocol ~bundle_out:o.bundle_out
          (match s.Xchain.Chaos.violations with
          | v :: _ -> Some (v.Xchain.Chaos.seed, v.Xchain.Chaos.plan)
          | [] -> None);
        if s.Xchain.Chaos.violations = [] then 0 else 1
      end
      else begin
        let r =
          surface_invalid ~cmd (fun () ->
              Xchain.Chaos.run_one ~hops ~protocol ?causal:w.causal ?prof:w.prof
                ?monitor:w.mon ?sampler:w.sampler ?recorder:w.recorder ~faults
                ~plan ~seed ())
        in
        let cls = Xchain.Chaos.classification_name r.Xchain.Chaos.classification in
        Fmt.pr "plan: %a@.classification: %s@." Faults.Fault_plan.pp
          r.Xchain.Chaos.plan cls;
        List.iter
          (fun v ->
            Fmt.pr "violated %s: %s@." v.Props.Verdict.property
              v.Props.Verdict.detail)
          r.Xchain.Chaos.failures;
        write_observed o w
          ~bundle:(fun ~monitor ~recorder ->
            match r.Xchain.Chaos.classification with
            | Xchain.Chaos.Safety_violation | Xchain.Chaos.Stuck ->
                Some (Xchain.Chaos.bundle ?causal:w.causal ~monitor ~recorder r)
            | _ -> None)
          ~blame:(fun c ->
            let cfg = Runner.default_config ~hops ~seed in
            print_payment_blame c
              ~delta:(cfg.Runner.delta + cfg.Runner.sigma)
              ~sink:
                (if r.Xchain.Chaos.paid_node >= 0 then r.Xchain.Chaos.paid_node
                 else r.Xchain.Chaos.settled_node))
          ~payments:(fun _ ->
            [ (Runner.protocol_name protocol, 0, 0, r.Xchain.Chaos.end_time, cls) ]);
        match r.Xchain.Chaos.classification with
        | Xchain.Chaos.Safety_violation ->
            Fmt.pr "repro: %s@." (Xchain.Chaos.repro_line r);
            1
        | _ -> 0
      end
    in
    dump_telemetry ~metrics_out ~spans_out:None;
    code
  in
  let plan =
    Arg.(value & opt (some string) None
         & info [ "plan" ] ~docv:"PLAN"
             ~doc:"Fault plan, e.g. 'drop *>3 0.2; crash 2AT500+800' (see \
                   docs/fault_injection.md for the grammar). Default: none.")
  in
  let soak =
    Arg.(value & flag
         & info [ "soak" ]
             ~doc:"Sweep random fault plans across seeds and classify every \
                   run; exit non-zero on any safety violation.")
  in
  let runs =
    Arg.(value & opt int 200
         & info [ "runs" ] ~doc:"Soak: number of random plans to run.")
  in
  let out =
    Arg.(value & opt (some string) None
         & info [ "out" ] ~docv:"FILE"
             ~doc:"Soak: write the summary as JSON to $(docv) ('-' for \
                   stdout). Deterministic except the trailing timing block \
                   (strip it with scripts/strip_timing.py before comparing \
                   across -j values).")
  in
  let repro_out =
    Arg.(value & opt (some string) None
         & info [ "repro-out" ] ~docv:"FILE"
             ~doc:"Soak: write one repro line per safety violation to $(docv) \
                   ('-' for stdout).")
  in
  let faults =
    Arg.(value & opt_all string []
         & info [ "fault" ] ~docv:"STRATEGY@ROLE"
             ~doc:"Byzantine substitution on top of the fault plan, e.g. \
                   thief-escrow AT e0 (strategy@role), exactly as xchain \
                   audit --fault; repeatable. Repro lines round-trip it.")
  in
  Cmd.v
    (Cmd.info "chaos"
       ~doc:"Run payments under a declarative fault plan (lossy links,               crashes, partitions), or soak hundreds of random plans and check              the safety properties")
    Term.(const run
          $ runner_protocol_arg
              ~doc:"Protocol under test: sync | naive | htlc | weak | committee." ()
          $ hops_arg ~cmd 2
          $ topology_arg
              ~extra:
                "The run's hop count becomes the cheapest source-to-sink \
                 path's length (overrides --hops)."
          $ seed_arg ~doc:"Schedule seed (soak: seed of run 0)." 1
          $ plan $ plan_file_arg $ soak $ runs $ jobs_arg $ out $ repro_out
          $ metrics_out_arg $ faults $ observe_term)

(* -------------------------------- hunt --------------------------------- *)

let hunt_cmd =
  let cmd = "hunt" in
  let run protocol hops topology seed budget gen_size j baseline no_shrink
      max_shrink_trials out corpus_out repros_out metrics_out bundle_out =
    let hops = hops_of_topology ~cmd ~value:1000 ~hops topology in
    require ~cmd (budget > 0) "--budget must be positive";
    require ~cmd (gen_size > 0) "--gen must be positive";
    require ~cmd
      (Option.value max_shrink_trials ~default:0 >= 0)
      "--max-shrink-trials must be >= 0";
    let domains = resolve_domains ~cmd j in
    let r =
      surface_invalid ~cmd (fun () ->
          Hunt.Search.hunt ~hops ~protocol ~gen_size ~domains ~baseline
            ~shrink:(not no_shrink) ?max_shrink_trials
            ?on_progress:(tty_progress "hunt") ~budget ~seed ())
    in
    Fmt.pr "@[<v>%a@]@." Hunt.Search.pp_report r;
    write_sink out (Hunt.Search.report_to_json r);
    write_sink corpus_out (Hunt.Search.corpus_to_jsonl r);
    write_lines repros_out (Hunt.Search.repro_lines r);
    replay_bundle ~hops ~protocol ~bundle_out
      (List.find_map
         (fun (e : Hunt.Search.entry) ->
           if e.Hunt.Search.classification = Xchain.Chaos.Safety_violation
           then Some (e.Hunt.Search.seed, e.Hunt.Search.plan)
           else None)
         r.Hunt.Search.corpus);
    dump_telemetry ~metrics_out ~spans_out:None;
    if r.Hunt.Search.violations > 0 then 1 else 0
  in
  let budget =
    Arg.(value & opt int 200
         & info [ "budget" ] ~docv:"N"
             ~doc:"Total chaos runs to spend searching.")
  in
  let gen_size =
    Arg.(value & opt int 50
         & info [ "gen" ] ~docv:"N"
             ~doc:"Runs per generation (generation 0 replays the uniform \
                   soak stream; later generations mutate the corpus).")
  in
  let baseline =
    Arg.(value & flag
         & info [ "baseline" ]
             ~doc:"Also run the uniform soak stream at the full budget and \
                   report its distinct signature count for comparison.")
  in
  let no_shrink =
    Arg.(value & flag
         & info [ "no-shrink" ]
             ~doc:"Skip minimizing stuck / violating witnesses.")
  in
  let max_shrink_trials =
    Arg.(value & opt (some int) None
         & info [ "max-shrink-trials" ] ~docv:"N"
             ~doc:"Cap replays per shrunk witness (default 400).")
  in
  let out =
    Arg.(value & opt (some string) None
         & info [ "out" ] ~docv:"FILE"
             ~doc:"Write the hunt report as JSON to $(docv) ('-' for \
                   stdout). Deterministic except the trailing timing block \
                   (strip it with scripts/strip_timing.py before comparing \
                   across -j values).")
  in
  let corpus_out =
    Arg.(value & opt (some string) None
         & info [ "corpus-out" ] ~docv:"FILE"
             ~doc:"Write the corpus (one JSON object per discovered \
                   signature, discovery order) to $(docv) ('-' for stdout).")
  in
  let repros_out =
    Arg.(value & opt (some string) None
         & info [ "repros-out" ] ~docv:"FILE"
             ~doc:"Write one shrunken repro line per stuck / violating \
                   signature to $(docv) ('-' for stdout).")
  in
  Cmd.v
    (Cmd.info "hunt"
       ~doc:"Coverage-guided adversarial fault-plan search: mutate plans \
             toward unseen outcome signatures, then shrink every stuck or \
             violating witness to a minimal one-line repro")
    Term.(const run
          $ runner_protocol_arg
              ~doc:"Protocol under test: sync | naive | htlc | weak | committee." ()
          $ hops_arg ~cmd 2
          $ topology_arg
              ~extra:
                "The hunt explores faults along the cheapest source-to-sink \
                 path (its length overrides --hops); signatures carry a \
                 path-shape bucket."
          $ seed_arg
              ~doc:"Root seed; the whole hunt (corpus, repros) is a pure \
                    function of it." 1
          $ budget $ gen_size $ jobs_arg
          $ baseline $ no_shrink $ max_shrink_trials $ out $ corpus_out
          $ repros_out $ metrics_out_arg $ bundle_out_arg)

(* ------------------------------- explore ------------------------------- *)

let explore_cmd =
  let cmd = "explore" in
  let run protocol hops drift max_corners j out metrics_out =
    let domains = resolve_domains ~cmd j in
    let r =
      surface_invalid ~cmd (fun () ->
          Xchain.Explore.sweep ~hops ~drift_ppm:drift ~max_corners ~domains
            ?on_progress:(tty_progress "explore") ~protocol ())
    in
    Fmt.pr "explore: %d hops, %d corners — %d violations@." hops
      r.Xchain.Explore.corners r.Xchain.Explore.violations;
    (match r.Xchain.Explore.first_witness with
    | Some w -> Fmt.pr "first witness: %s@." w
    | None -> ());
    write_sink out
      (Xchain.Explore.result_to_json ~hops ~drift_ppm:drift ~protocol r);
    dump_telemetry ~metrics_out ~spans_out:None;
    if r.Xchain.Explore.violations = 0 then 0 else 1
  in
  let drift =
    Arg.(value & opt int 50_000
         & info [ "drift-ppm" ] ~doc:"Clock drift bound for the corner clocks, ppm.")
  in
  let max_corners =
    Arg.(value & opt int 600_000
         & info [ "max-corners" ]
             ~doc:"Refuse instances needing more corners than this.")
  in
  let out =
    Arg.(value & opt (some string) None
         & info [ "out" ] ~docv:"FILE"
             ~doc:"Write the sweep result as JSON to $(docv) ('-' for \
                   stdout). Deterministic except the trailing timing block.")
  in
  Cmd.v
    (Cmd.info "explore"
       ~doc:"Exhaustively enumerate every extremal delay x clock corner of a \
             small payment instance and check Definition 1 on each — \
             exit 0 iff the sweep is clean. The corner space shards over \
             -j domains with byte-identical results")
    Term.(const run
          $ runner_protocol_arg
              ~doc:"Protocol to enumerate: sync | naive | htlc (TM protocols \
                    are not corner-enumerable)." ()
          $ hops_arg ~cmd 1 $ drift $ max_corners $ jobs_arg $ out
          $ metrics_out_arg)

(* ------------------------------- trace --------------------------------- *)

let trace_cmd =
  let cmd = "trace" in
  let run protocol hops gst seed plan out trace_out dag_out =
    let fault_plan = Option.map (fun s -> read_plan ~cmd (Some s)) plan in
    let causal = Obsv.Causal.create () in
    let cfg =
      { (Runner.default_config ~hops ~seed) with
        Runner.network = runner_network gst;
        fault_plan;
        causal = Some causal }
    in
    let wall_t0 = Fleet.now_ns () in
    let o = surface_invalid ~cmd (fun () -> Runner.run cfg protocol) in
    let wall_ns = max 1 (Fleet.now_ns () - wall_t0) in
    let committed = o.Runner.paid_node >= 0 in
    let delta = cfg.Runner.delta + cfg.Runner.sigma in
    let sink = if committed then o.Runner.paid_node else o.Runner.settled_node in
    Fmt.pr "protocol %s, %d hops, seed %d: %s, engine stopped at t=%d@."
      (Runner.protocol_name protocol)
      hops seed
      (if committed then "commit" else "abort")
      o.Runner.end_time;
    Fmt.pr "causal graph: %d nodes, %d edges@."
      (Obsv.Causal.node_count causal)
      (Obsv.Causal.edge_count causal);
    print_payment_blame causal ~delta ~sink;
    let slice_end =
      if o.Runner.settled_node >= 0 then
        Obsv.Causal.time_of causal o.Runner.settled_node
      else o.Runner.end_time
    in
    dump_causal causal ~trace_out ~dag_out
      ~payments:
        [
          ( Runner.protocol_name protocol,
            0,
            0,
            slice_end,
            if committed then "commit" else "abort" );
        ];
    (match out with
    | None -> ()
    | Some _ ->
        (* same convention as chaos/explore/load reports: everything
           deterministic except the trailing flat "timing" object *)
        let blame_json =
          if sink >= 0 then
            Obsv.Blame.report_to_json
              (Obsv.Blame.attribute ~delta causal ~root:0 ~sink)
          else "null"
        in
        write_sink out
          (Printf.sprintf
             "{\"trace\":{\"protocol\":\"%s\",\"hops\":%d,\"seed\":%d,\
              \"committed\":%b,\"end_time\":%d,\"nodes\":%d,\"edges\":%d},\
              \"blame\":%s,\"timing\":{\"events_processed\":%d,\
              \"wall_ns\":%d,\"events_per_sec\":%d}}\n"
             (Runner.protocol_name protocol)
             hops seed committed o.Runner.end_time
             (Obsv.Causal.node_count causal)
             (Obsv.Causal.edge_count causal)
             blame_json o.Runner.events wall_ns
             (per_sec o.Runner.events wall_ns)));
    0
  in
  let plan =
    Arg.(value & opt (some string) None
         & info [ "plan" ] ~docv:"PLAN"
             ~doc:"Fault plan to run the payment under (see \
                   docs/fault_injection.md). Default: none.")
  in
  let out =
    Arg.(value & opt (some string) None
         & info [ "out" ] ~docv:"FILE"
             ~doc:"Write the trace report (graph stats + blame \
                   decomposition) as JSON to $(docv) ('-' for stdout). \
                   Deterministic except the trailing timing block \
                   (events_processed / wall_ns / events_per_sec).")
  in
  Cmd.v
    (Cmd.info "trace"
       ~doc:"Run one payment with causal tracing on: reconstruct its \
             happens-before graph, print the critical path and the blame \
             decomposition of its end-to-end latency, and export the graph \
             as Chrome trace-event JSON or a DAG dump")
    Term.(const run $ runner_protocol_arg () $ hops_arg ~cmd 2 $ gst_arg ()
          $ seed_arg 1 $ plan $ out $ trace_out_arg $ dag_out_arg)

(* -------------------------------- load --------------------------------- *)

let load_cmd =
  let cmd = "load" in
  let run spec payments hops value commission arrival mix policy cap liquidity
      topology route splits patience stuck drift gst seed plan plan_file
      trace_cap replications j out metrics_out spans_out o =
    arm_span_capture spans_out;
    let workload =
      match spec with
      | Some s -> parse_arg ~cmd "--spec" Traffic.Workload.of_string s
      | None ->
          let w =
            {
              (Traffic.Workload.default ~payments) with
              Traffic.Workload.hops;
              value;
              commission;
              arrival = parse_arg ~cmd "--arrival" Traffic.Workload.arrival_of_string arrival;
              mix = parse_arg ~cmd "--mix" Traffic.Workload.mix_of_string mix;
              policy = parse_arg ~cmd "--policy" Traffic.Workload.policy_of_string policy;
              cap;
              liquidity;
              topology;
              route = parse_arg ~cmd "--route" Routing.Router.strategy_of_string route;
              splits;
              patience;
              stuck_after = stuck;
              drift_ppm = drift;
              gst;
            }
          in
          (match Traffic.Workload.validate w with
          | Ok () -> w
          | Error e -> die ~cmd "bad workload: %s" e)
    in
    let plan = read_plan ~cmd ?plan_file plan in
    require ~cmd (replications >= 1) "--replications must be >= 1";
    if replications > 1 then begin
      (* Per-run telemetry sinks interleave nondeterministically across
         domains; the replication path only produces the deterministic
         aggregate (plus the strippable timing block). *)
      require ~cmd
        (spans_out = None && metrics_out = None && not (observing o))
        "--replications > 1 is incompatible with \
         --spans-out/--metrics-out/--trace-out/--dag-out/--blame/--profile/--monitor/--series-out/--bundle-out \
         (run a single replication for per-run telemetry)";
      let domains = resolve_domains ~cmd j in
      Obsv.Span.set_capture Obsv.Span.default false;
      let outcomes, stats =
        Fleet.run ~domains
          ?on_progress:(tty_progress "load replications")
          ~jobs:replications
          (fun i ->
            Traffic.Load.run ~plan ~trace_capacity:trace_cap ~workload
              ~seed:(seed + i) ())
      in
      let reports =
        Array.map
          (function
            | Error (f : Fleet.failure) ->
                die ~cmd "replication %d raised: %s" f.Fleet.job f.Fleet.message
            | Ok r -> r)
          outcomes
      in
      Fmt.pr "load: %a@." Traffic.Workload.pp workload;
      Fmt.pr "replications %d: seeds %d..%d, plan %s@." replications seed
        (seed + replications - 1)
        (Faults.Fault_plan.to_string plan);
      Array.iteri
        (fun i (r : Traffic.Load.report) ->
          Fmt.pr
            "  seed %d: committed %d, aborted %d, rejected %d, stuck %d, \
             violated %d@."
            (seed + i) r.Traffic.Load.committed r.Traffic.Load.aborted
            r.Traffic.Load.rejected r.Traffic.Load.stuck
            r.Traffic.Load.violated)
        reports;
      let sum f = Array.fold_left (fun acc r -> acc + f r) 0 reports in
      let clean =
        Array.for_all
          (fun (r : Traffic.Load.report) ->
            r.Traffic.Load.violations = [] && r.Traffic.Load.conservation_ok)
          reports
      in
      Fmt.pr "total: committed %d, aborted %d, rejected %d, stuck %d, \
              violated %d — %s@."
        (sum (fun r -> r.Traffic.Load.committed))
        (sum (fun r -> r.Traffic.Load.aborted))
        (sum (fun r -> r.Traffic.Load.rejected))
        (sum (fun r -> r.Traffic.Load.stuck))
        (sum (fun r -> r.Traffic.Load.violated))
        (if clean then "all clean" else "VIOLATIONS");
      write_sink out
        (Printf.sprintf "{\"replications\":[%s],%s}\n"
           (String.concat "," (Array.to_list (Array.map Traffic.Load.to_json reports)))
           (timing_json ~events:(sum (fun r -> r.Traffic.Load.events)) stats));
      exit (if clean then 0 else 1)
    end;
    let w = arm o in
    let report =
      surface_invalid ~cmd (fun () ->
          Traffic.Load.run ?causal:w.causal ?prof:w.prof ?monitor:w.mon
            ?sampler:w.sampler ?recorder:w.recorder ~plan
            ~trace_capacity:trace_cap ~workload ~seed ())
    in
    Fmt.pr "%a@." Traffic.Load.pp_summary report;
    write_observed o w
      ~bundle:(fun ~monitor ~recorder ->
        if
          report.Traffic.Load.violations <> []
          || (not report.Traffic.Load.conservation_ok)
          || report.Traffic.Load.stuck > 0
        then
          let repro =
            Printf.sprintf "xchain load --spec '%s' --seed %d%s"
              (Traffic.Workload.to_string workload)
              seed
              (if Faults.Fault_plan.is_none plan then ""
               else
                 Printf.sprintf " --plan '%s'"
                   (Faults.Fault_plan.to_string plan))
          in
          Some
            (Obsv.Recorder.bundle_json ~monitor
               ~stuck:
                 ( "unsettled payments when the run stopped",
                   report.Traffic.Load.makespan )
               ~repro ?causal:w.causal
               ~metrics:(Obsv.Metrics.to_json Obsv.Metrics.default)
               recorder)
        else None)
      ~blame:(fun _ ->
        Option.iter
          (fun agg -> Fmt.pr "%a@." Obsv.Blame.pp_agg agg)
          report.Traffic.Load.blame)
      ~payments:(fun c ->
        List.map
          (fun (k, r) ->
            ( "pay#" ^ string_of_int k,
              k,
              Obsv.Causal.time_of c r.Obsv.Blame.root,
              Obsv.Causal.time_of c r.Obsv.Blame.sink,
              "committed" ))
          report.Traffic.Load.blame_reports);
    write_sink out (Traffic.Load.to_json report ^ "\n");
    dump_telemetry ~metrics_out ~spans_out;
    if report.Traffic.Load.violations = [] && report.Traffic.Load.conservation_ok
    then 0
    else 1
  in
  let spec =
    Arg.(value & opt (some string) None
         & info [ "spec" ] ~docv:"WORKLOAD"
             ~doc:"Full workload as the one-line key=value grammar (exactly \
                   what a report embeds); overrides the individual flags.")
  in
  let payments =
    Arg.(value & opt int 100 & info [ "payments" ] ~doc:"Concurrent payment instances.")
  in
  let value = Arg.(value & opt int 1000 & info [ "value" ] ~doc:"What Bob is owed.") in
  let commission =
    Arg.(value & opt int 10 & info [ "commission" ] ~doc:"Per-connector commission.")
  in
  let arrival =
    Arg.(value & opt string "poisson:40"
         & info [ "arrival" ] ~docv:"PROC"
             ~doc:"Arrival process: poisson:GAP | closed:CLIENTS:THINK | \
                   burst:SIZE:EVERY | ramp:HI:LO.")
  in
  let mix =
    Arg.(value & opt string "sync"
         & info [ "mix" ] ~docv:"MIX"
             ~doc:"Weighted protocol mix, e.g. 'sync:2,weak:1,htlc:1'. \
                   Protocols: sync naive htlc weak committee atomic.")
  in
  let policy =
    Arg.(value & opt string "reserve"
         & info [ "policy" ]
             ~doc:"Admission policy: reserve (scheduler holds each leg's \
                   funds) or optimistic (deposits race; funding-checked \
                   protocols only).")
  in
  let cap =
    Arg.(value & opt int 0
         & info [ "cap" ] ~doc:"Max payments in flight (0 = unlimited).")
  in
  let liquidity =
    Arg.(value & opt int 0
         & info [ "liquidity" ]
             ~doc:"Payer funding in multiples of one payment's leg amount \
                   (0 = ample: one unit per payment).")
  in
  let route =
    Arg.(value & opt string "shortest"
         & info [ "route" ] ~docv:"STRATEGY"
             ~doc:"Path-selection strategy over --topology: shortest \
                   (cheapest-first greedy) or round-robin (rotating fair \
                   shares).")
  in
  let splits =
    Arg.(value & opt int 1
         & info [ "splits" ] ~docv:"N"
             ~doc:"Max edge-disjoint paths a payment may split across \
                   (requires --topology).")
  in
  let patience =
    Arg.(value & opt int 2000
         & info [ "patience" ] ~doc:"Admission-queue patience, ticks.")
  in
  let stuck =
    Arg.(value & opt int 0
         & info [ "stuck-after" ]
             ~doc:"Stuck deadline after admission, ticks (0 = derived from \
                   the mix's protocol horizons).")
  in
  let drift =
    Arg.(value & opt int 10_000 & info [ "drift" ] ~doc:"Clock drift bound, ppm.")
  in
  let plan =
    Arg.(value & opt (some string) None
         & info [ "plan" ] ~docv:"PLAN"
             ~doc:"Fault plan over host pids 0..block-1, applied to every \
                   payment (see docs/fault_injection.md). Default: none.")
  in
  let trace_cap =
    Arg.(value & opt int 4096
         & info [ "trace-cap" ]
             ~doc:"Engine trace ring-buffer capacity (0 = unbounded). \
                   Accounting is hook-fed, so eviction never skews the report.")
  in
  let replications =
    Arg.(value & opt int 1
         & info [ "replications" ] ~docv:"N"
             ~doc:"Run the workload $(docv) times with seeds seed, seed+1, \
                   …, sharded over -j fleet domains, and report every \
                   replication plus the aggregate. Incompatible with the \
                   per-run telemetry sinks.")
  in
  let out =
    Arg.(value & opt (some string) None
         & info [ "out" ] ~docv:"FILE"
             ~doc:"Write the JSON report to $(docv) ('-' for stdout). \
                   Bit-identical across runs with equal inputs, except the \
                   trailing timing block (host wall clock).")
  in
  Cmd.v
    (Cmd.info "load"
       ~doc:"Run thousands of concurrent payments in one engine over shared \
             escrow liquidity, classify every outcome, check the safety \
             subset, and report throughput and latency percentiles")
    Term.(
      const run $ spec $ payments
      $ hops_arg ~cmd ~doc:"Escrows per payment." 2
      $ value $ commission $ arrival $ mix
      $ policy $ cap $ liquidity
      $ topology_arg
          ~extra:
            "Payments are routed source-to-sink over the graph's per-edge \
             liquidity instead of the fixed --hops chain (requires \
             --policy reserve)."
      $ route $ splits $ patience $ stuck $ drift $ gst_arg ()
      $ seed_arg ~doc:"Run seed." 1
      $ plan $ plan_file_arg $ trace_cap $ replications $ jobs_arg $ out
      $ metrics_out_arg $ spans_out_arg $ observe_term)

(* ------------------------------ committee ------------------------------ *)

let committee_cmd =
  let cmd = "committee" in
  let run committees batches pipeline payments hops patience gst seed j out
      metrics_out =
    let parse_committee s =
      (* family:size:f[:faulty] — batch and pipeline come from the sweep *)
      match String.split_on_char ':' s with
      | ([ fam; size; f ] | [ fam; size; f; _ ]) as fields -> (
          let faulty = match fields with [ _; _; _; x ] -> x | _ -> "0" in
          match
            ( int_of_string_opt size,
              int_of_string_opt f,
              int_of_string_opt faulty )
          with
          | Some size, Some f, Some faulty ->
              (fam, size, f, faulty)
          | _ -> die ~cmd "bad committee %S (want family:size:f[:faulty])" s)
      | _ -> die ~cmd "bad committee %S (want family:size:f[:faulty])" s
    in
    let committees =
      List.map parse_committee (String.split_on_char ',' committees)
    in
    let batches =
      List.map
        (fun s ->
          match int_of_string_opt (String.trim s) with
          | Some b when b >= 1 -> b
          | _ -> die ~cmd "bad --batches entry %S" s)
        (String.split_on_char ',' batches)
    in
    require ~cmd (committees <> [] && batches <> [])
      "--committees and --batches must be non-empty";
    (* cells in (committee, batch) order: batch is the inner axis so the
       unbatched baseline sits next to its batched counterpart *)
    let cells =
      List.concat_map
        (fun c -> List.map (fun b -> (c, b)) batches)
        committees
    in
    let workload_of ((fam, size, f, faulty), batch) =
      let w =
        {
          (Traffic.Workload.default ~payments) with
          Traffic.Workload.hops;
          arrival = Traffic.Workload.Burst { size = payments; every = 1 };
          mix = [ (Traffic.Workload.Shared, 1) ];
          patience;
          drift_ppm = 0;
          gst;
          committee =
            Some
              {
                Traffic.Workload.c_family = fam;
                c_size = size;
                c_f = f;
                c_batch = batch;
                c_pipeline = pipeline;
                c_faulty = faulty;
              };
        }
      in
      (match Traffic.Workload.validate w with
      | Ok () -> ()
      | Error e -> die ~cmd "cell %s:%d:%d batch %d: %s" fam size f batch e);
      w
    in
    let cells = Array.of_list cells in
    let workloads = Array.map workload_of cells in
    let domains = resolve_domains ~cmd:"committee" j in
    Obsv.Span.set_capture Obsv.Span.default false;
    let outcomes, stats =
      Fleet.run ~domains
        ?on_progress:(tty_progress "committee sweep")
        ~jobs:(Array.length cells)
        (fun i -> Traffic.Load.run ~workload:workloads.(i) ~seed ())
    in
    let reports =
      Array.mapi
        (fun i -> function
          | Error (fl : Fleet.failure) ->
              let (fam, size, f, _), batch = cells.(i) in
              die ~cmd "cell %s:%d:%d batch %d raised: %s" fam size f batch
                fl.Fleet.message
          | Ok r -> r)
        outcomes
    in
    Fmt.pr
      "committee sweep: %d payments x %d hops, pipeline %d, seed %d, %d \
       cells@."
      payments hops pipeline seed (Array.length cells);
    (* all payments arrive in one burst, so the decide span is exactly
       the slowest payment's latency — the makespan is padded out to the
       patience horizon and would wash batching out of a rate *)
    let decided_cpm (r : Traffic.Load.report) =
      if r.Traffic.Load.latency_max = 0 then 0
      else r.Traffic.Load.committed * 1_000_000 / r.Traffic.Load.latency_max
    in
    Fmt.pr "%-10s %5s %3s %6s %6s  %9s %6s %6s %6s %11s %8s@." "family" "size"
      "f" "faulty" "batch" "committed" "certs" "maxbat" "rounds" "decided/Mt"
      "cert-lat";
    let clean = ref true in
    Array.iteri
      (fun i (r : Traffic.Load.report) ->
        let (fam, size, f, faulty), batch = cells.(i) in
        let cs =
          match r.Traffic.Load.committee_stats with
          | Some s -> s
          | None -> die ~cmd "cell %s:%d:%d batch %d: no committee stats" fam size f batch
        in
        if
          r.Traffic.Load.violations <> []
          || (not r.Traffic.Load.conservation_ok)
          || r.Traffic.Load.committed <> payments
        then clean := false;
        Fmt.pr "%-10s %5d %3d %6d %6d  %9d %6d %6d %6d %11d %8d@." fam size f
          faulty batch r.Traffic.Load.committed cs.Traffic.Load.certs
          cs.Traffic.Load.max_batch cs.Traffic.Load.rounds (decided_cpm r)
          (if cs.Traffic.Load.certs = 0 then 0
           else cs.Traffic.Load.cert_lat_sum / cs.Traffic.Load.certs))
      reports;
    Fmt.pr "%s@." (if !clean then "all cells clean" else "CELLS FAILED");
    (match out with
    | None -> ()
    | Some _ ->
        let buf = Buffer.create 4096 in
        Printf.bprintf buf
          "{\"payments\":%d,\"hops\":%d,\"pipeline\":%d,\"seed\":%d,\"sweep\":["
          payments hops pipeline seed;
        Array.iteri
          (fun i (r : Traffic.Load.report) ->
            let (fam, size, f, faulty), batch = cells.(i) in
            let cs = Option.get r.Traffic.Load.committee_stats in
            if i > 0 then Buffer.add_char buf ',';
            Printf.bprintf buf
              "{\"family\":\"%s\",\"size\":%d,\"f\":%d,\"faulty\":%d,\"batch\":%d,\"status\":\"%s\",\"committed\":%d,\"decided_cpm\":%d,\"messages\":%d,\"latency\":{\"p50\":%d,\"p95\":%d,\"p99\":%d,\"max\":%d},\"committee\":{\"certs\":%d,\"verdicts\":%d,\"max_batch\":%d,\"rounds\":%d,\"cert_lat_sum\":%d,\"cert_lat_max\":%d}}"
              fam size f faulty batch r.Traffic.Load.status
              r.Traffic.Load.committed (decided_cpm r)
              r.Traffic.Load.messages r.Traffic.Load.latency_p50
              r.Traffic.Load.latency_p95 r.Traffic.Load.latency_p99
              r.Traffic.Load.latency_max cs.Traffic.Load.certs
              cs.Traffic.Load.verdicts cs.Traffic.Load.max_batch
              cs.Traffic.Load.rounds cs.Traffic.Load.cert_lat_sum
              cs.Traffic.Load.cert_lat_max)
          reports;
        let events =
          Array.fold_left
            (fun acc (r : Traffic.Load.report) -> acc + r.Traffic.Load.events)
            0 reports
        in
        Printf.bprintf buf "],%s}\n" (timing_json ~events stats);
        write_sink out (Buffer.contents buf));
    dump_telemetry ~metrics_out ~spans_out:None;
    if !clean then 0 else 1
  in
  let committees =
    Arg.(
      value
      & opt string "majority:4:1,majority:16:5,majority:64:21"
      & info [ "committees" ] ~docv:"LIST"
          ~doc:
            "Comma-separated committee shapes, each family:size:f[:faulty] \
             (family: majority | weighted | grid; grid sizes must be \
             perfect squares; faulty replicas are crash-silent, never the \
             sequencer).")
  in
  let batches =
    Arg.(
      value & opt string "1,32"
      & info [ "batches" ] ~docv:"LIST"
          ~doc:
            "Comma-separated certificate batch caps; include 1 for the \
             unbatched baseline.")
  in
  let pipeline =
    Arg.(
      value & opt int 4
      & info [ "pipeline" ] ~docv:"N"
          ~doc:"Max concurrently undecided slots (>= 1).")
  in
  let payments =
    Arg.(
      value & opt int 128
      & info [ "payments" ]
          ~doc:
            "Payments per cell, all arriving in one burst so batches can \
             fill.")
  in
  let patience =
    Arg.(
      value & opt int 100_000
      & info [ "patience" ]
          ~doc:
            "Admission-queue patience, ticks; generous because the burst \
             queues every payment at once.")
  in
  let out =
    Arg.(
      value
      & opt (some string) None
      & info [ "out" ] ~docv:"FILE"
          ~doc:
            "Write the sweep as JSON to $(docv) ('-' for stdout). \
             Bit-identical across runs with equal inputs for any -j, except \
             the trailing timing block.")
  in
  Cmd.v
    (Cmd.info "committee"
       ~doc:
         "Sweep shared notary committees (size x quorum family x batch cap) \
          under a burst of payments and report certificate batching, \
          consensus rounds and decided-payment throughput")
    Term.(
      const run $ committees $ batches $ pipeline $ payments
      $ hops_arg ~cmd ~doc:"Escrows per payment." 2
      $ patience $ gst_arg ()
      $ seed_arg ~doc:"Run seed (same for every cell)." 1
      $ jobs_arg $ out $ metrics_out_arg)

(* -------------------------------- route -------------------------------- *)

let route_cmd =
  let cmd = "route" in
  let run spec value splits strategy rebalance json out metrics_out =
    let module RT = Routing.Topology in
    let module RR = Routing.Router in
    let topo = parse_arg ~cmd "topology" RT.of_string spec in
    let strat = parse_arg ~cmd "--strategy" RR.strategy_of_string strategy in
    require ~cmd (value >= 1) "--value must be positive";
    require ~cmd (splits >= 1) "--splits must be positive";
    let avail e = RT.capacity topo.RT.edges.(e) in
    let flow = RR.max_flow topo () in
    let flow_str =
      if flow >= RT.unbounded then "unbounded" else string_of_int flow
    in
    let candidates = RR.paths topo ~max:splits () in
    let router = RR.create ~strategy:strat topo in
    let routed = RR.route router ~avail ~value ~max_splits:splits in
    let reb = Routing.Rebalance.plan topo in
    if json then begin
      let b = Buffer.create 1024 in
      let str s =
        Buffer.add_string b ("\"" ^ Obsv.Metrics.json_escape s ^ "\"")
      in
      Buffer.add_string b "{\"topology\":";
      str (RT.to_string topo);
      Printf.bprintf b ",\"nodes\":%d,\"edges\":%d,\"max_flow\":"
        topo.RT.nodes
        (Array.length topo.RT.edges);
      if flow >= RT.unbounded then str "unbounded"
      else Buffer.add_string b (string_of_int flow);
      Buffer.add_string b ",\"liquidity_histogram\":{";
      List.iteri
        (fun i (bucket, n) ->
          if i > 0 then Buffer.add_char b ',';
          str bucket;
          Printf.bprintf b ":%d" n)
        (RT.liquidity_histogram topo);
      Printf.bprintf b "},\"value\":%d,\"strategy\":" value;
      str (RR.strategy_name strat);
      Buffer.add_string b ",\"route\":";
      (match routed with
      | Ok ss ->
          Buffer.add_char b '[';
          List.iteri
            (fun i (s : RR.split) ->
              if i > 0 then Buffer.add_char b ',';
              Buffer.add_string b "{\"nodes\":[";
              List.iteri
                (fun j n ->
                  if j > 0 then Buffer.add_char b ',';
                  Buffer.add_string b (string_of_int n))
                (RR.path_nodes topo s.RR.path);
              Printf.bprintf b "],\"value\":%d}" s.RR.value)
            ss;
          Buffer.add_char b ']'
      | Error e ->
          Buffer.add_string b "{\"error\":";
          str e;
          Buffer.add_char b '}');
      Printf.bprintf b ",\"rebalance\":{\"moves\":%d,\"volume\":%d}}"
        (List.length reb.Routing.Rebalance.moves)
        reb.Routing.Rebalance.volume;
      Buffer.add_char b '\n';
      write_sink (Some (Option.value out ~default:"-")) (Buffer.contents b)
    end
    else begin
      Fmt.pr "topology: %s@." (RT.to_string topo);
      Fmt.pr "nodes %d, edges %d, source %d, sink %d@." topo.RT.nodes
        (Array.length topo.RT.edges) (RT.source topo) (RT.sink topo);
      Fmt.pr "max-flow bound: %s@." flow_str;
      Fmt.pr "liquidity histogram:@.";
      List.iter
        (fun (bucket, n) -> Fmt.pr "  %-10s %d edge(s)@." bucket n)
        (RT.liquidity_histogram topo);
      Fmt.pr "candidate paths (cost order, max %d):@." splits;
      List.iter
        (fun p ->
          let cap = RR.path_capacity topo ~avail p in
          Fmt.pr "  %s  capacity %s@."
            (String.concat ">"
               (List.map string_of_int (RR.path_nodes topo p)))
            (if cap >= RT.unbounded then "unbounded" else string_of_int cap))
        candidates;
      (match routed with
      | Ok ss ->
          Fmt.pr "route %d via %s:@." value (RR.strategy_name strat);
          List.iter
            (fun (s : RR.split) ->
              Fmt.pr "  %s  carries %d@."
                (String.concat ">"
                   (List.map string_of_int (RR.path_nodes topo s.RR.path)))
                s.RR.value)
            ss
      | Error e -> Fmt.pr "route %d: %s@." value e);
      if rebalance then Fmt.pr "%a@." Routing.Rebalance.pp reb;
      match out with
      | None -> ()
      | Some _ -> write_sink out (RT.to_string topo ^ "\n")
    end;
    let reg = Obsv.Metrics.default in
    Obsv.Metrics.set
      (Obsv.Metrics.gauge reg
         ~help:"Volume a rebalancing pass would move on this topology"
         "xchain_route_rebalance_volume")
      reb.Routing.Rebalance.volume;
    dump_telemetry ~metrics_out ~spans_out:None;
    match routed with Ok _ -> 0 | Error _ -> 1
  in
  let spec =
    Arg.(required & pos 0 (some string) None
         & info [] ~docv:"TOPOLOGY"
             ~doc:"Topology spec: linear:H | hub:K | er:N:E:SEED | \
                   sf:N:D:SEED | graph:N;U>V:LIQ:COMM,... (see \
                   docs/routing.md).")
  in
  let value =
    Arg.(value & opt int 1000
         & info [ "value" ] ~doc:"Payment value to route.")
  in
  let splits =
    Arg.(value & opt int 4
         & info [ "splits" ] ~docv:"N"
             ~doc:"Max edge-disjoint paths to split across.")
  in
  let strategy =
    Arg.(value & opt string "shortest"
         & info [ "strategy" ] ~docv:"STRATEGY"
             ~doc:"shortest or round-robin.")
  in
  let rebalance =
    Arg.(value & flag
         & info [ "rebalance" ]
             ~doc:"Print the liquidity-rebalancing plan (batched transfers \
                   evening out each node's bounded out-edges).")
  in
  let json =
    Arg.(value & flag
         & info [ "json" ] ~doc:"Emit the analysis as JSON instead of text.")
  in
  let out =
    Arg.(value & opt (some string) None
         & info [ "out" ] ~docv:"FILE"
             ~doc:"Write the JSON analysis (with --json) or the canonical \
                   topology line to $(docv) ('-' for stdout).")
  in
  Cmd.v
    (Cmd.info "route"
       ~doc:"Analyse a payment graph: candidate source-to-sink paths, \
             max-flow bound, liquidity histogram, the split a router would \
             choose for a value, and an optional rebalancing plan")
    Term.(const run $ spec $ value $ splits $ strategy $ rebalance $ json
          $ out $ metrics_out_arg)

(* ------------------------------- profile ------------------------------- *)

let profile_cmd =
  let cmd = "profile" in
  let run workload payments hops arrival mix protocol runs seed top out
      profile_out collapsed_out topology splits =
    let prof = Obsv.Prof.create ~now_ns:Fleet.now_ns () in
    let code =
      match workload with
      | "load" ->
          (* causal tracing on: dispatch sites then attribute to
             individual payments (pay#K frames) instead of one "run"
             bucket, cross-linking profiles with xchain trace ids *)
          let causal = Obsv.Causal.create () in
          let workload =
            {
              (Traffic.Workload.default ~payments) with
              Traffic.Workload.hops;
              arrival =
                parse_arg ~cmd "--arrival" Traffic.Workload.arrival_of_string
                  arrival;
              mix = parse_arg ~cmd "--mix" Traffic.Workload.mix_of_string mix;
              topology;
              splits;
            }
          in
          let report =
            surface_invalid ~cmd (fun () ->
                Traffic.Load.run ~causal ~prof ~workload ~seed ())
          in
          Fmt.pr "%a@." Traffic.Load.pp_summary report;
          write_sink out (Traffic.Load.to_json report ^ "\n");
          if
            report.Traffic.Load.violations = []
            && report.Traffic.Load.conservation_ok
          then 0
          else 1
      | "chaos" ->
          let hops = hops_of_topology ~cmd ~value:1000 ~hops topology in
          require ~cmd (runs >= 0) "--runs must be >= 0";
          let s =
            Xchain.Chaos.soak ~hops ~protocol ~runs ~seed ~prof
              ?on_progress:(tty_progress "profile chaos") ()
          in
          Fmt.pr "%a@." Xchain.Chaos.pp_summary s;
          write_sink out (Xchain.Chaos.summary_to_json ~hops ~protocol ~seed s);
          if s.Xchain.Chaos.violations = [] then 0 else 1
      | "explore" ->
          let hops = hops_of_topology ~cmd ~value:1000 ~hops topology in
          let r =
            surface_invalid ~cmd (fun () ->
                Xchain.Explore.sweep ~hops ~prof
                  ?on_progress:(tty_progress "profile explore") ~protocol ())
          in
          Fmt.pr "explore: %d hops, %d corners — %d violations@." hops
            r.Xchain.Explore.corners r.Xchain.Explore.violations;
          write_sink out (Xchain.Explore.result_to_json ~hops ~protocol r);
          if r.Xchain.Explore.violations = 0 then 0 else 1
      | other -> die ~cmd "unknown workload %S (load|chaos|explore)" other
    in
    dump_prof ~top ~table:true (Some prof) ~profile_out ~collapsed_out;
    code
  in
  let workload =
    Arg.(
      value & pos 0 string "load"
      & info [] ~docv:"WORKLOAD"
          ~doc:
            "What to profile: load (default — a multiplexed load run with \
             per-payment attribution), chaos (a single-domain soak), or \
             explore (a corner sweep).")
  in
  let payments =
    Arg.(value & opt int 1000
         & info [ "payments" ] ~doc:"Load: concurrent payment instances.")
  in
  let arrival =
    Arg.(value & opt string "poisson:40"
         & info [ "arrival" ] ~docv:"PROC" ~doc:"Load: arrival process.")
  in
  let mix =
    Arg.(value & opt string "sync"
         & info [ "mix" ] ~docv:"MIX" ~doc:"Load: weighted protocol mix.")
  in
  let runs =
    Arg.(value & opt int 200
         & info [ "runs" ] ~doc:"Chaos: number of random plans to run.")
  in
  let top =
    Arg.(value & opt int 15
         & info [ "top" ] ~docv:"N" ~doc:"Rows in the hot-site table.")
  in
  let out =
    Arg.(value & opt (some string) None
         & info [ "out" ] ~docv:"FILE"
             ~doc:"Write the wrapped workload's own JSON report to $(docv) \
                   ('-' for stdout), exactly as the underlying command \
                   would.")
  in
  let splits =
    Arg.(value & opt int 1
         & info [ "splits" ] ~docv:"N"
             ~doc:"Load: max edge-disjoint paths a payment may split across \
                   (requires --topology).")
  in
  Cmd.v
    (Cmd.info "profile"
       ~doc:
         "Run a load, chaos or explore workload with the dispatch profiler \
          armed: wall time and allocation attributed per payment x process \
          x event kind, a top-N hot-site table, and JSON / collapsed-stack \
          (speedscope) exports. Deterministic modulo the strippable \
          timing/prof_timing blocks")
    Term.(
      const run $ workload $ payments $ hops_arg ~cmd 2 $ arrival $ mix
      $ runner_protocol_arg ~doc:"Chaos/explore: protocol under test." ()
      $ runs $ seed_arg ~doc:"Run seed." 1 $ top $ out $ profile_out_arg $ collapsed_out_arg
      $ topology_arg
          ~extra:
            "Load: payments route over the graph's per-edge liquidity; \
             chaos/explore: the hop count becomes the cheapest \
             source-to-sink path's length (overrides --hops)."
      $ splits)

(* -------------------------------- dot ---------------------------------- *)

let dot_cmd =
  let cmd = "dot" in
  let run hops who =
    let topo = Topology.create ~hops in
    let params = Params.derive (Params.default_input ~hops) in
    let env = Env.make ~topo ~params () in
    let auto =
      match who with
      | "alice" -> Sync_protocol.alice_automaton env
      | "bob" -> Sync_protocol.bob_automaton env
      | "escrow" -> Sync_protocol.escrow_automaton env 0
      | "chloe" ->
          require ~cmd (hops >= 2) "need >= 2 hops for a connector";
          Sync_protocol.connector_automaton env 1
      | other -> die ~cmd "unknown automaton %S (alice | chloe | bob | escrow)" other
    in
    print_string (Anta.Automaton.to_dot auto);
    0
  in
  let who =
    Arg.(value & pos 0 string "escrow"
         & info [] ~docv:"WHO" ~doc:"alice | chloe | bob | escrow.")
  in
  Cmd.v
    (Cmd.info "dot" ~doc:"Emit a Figure 2 automaton as Graphviz")
    Term.(const run $ hops_arg ~cmd 3 $ who)

let () =
  let info =
    Cmd.info "xchain" ~version:"1.0.0"
      ~doc:"Cross-chain payment with success guarantees (SPAA 2020) — reproduction"
  in
  exit
    (Cmd.eval'
       (Cmd.group info
          [ pay_cmd; experiment_cmd; params_cmd; dot_cmd; audit_cmd; deal_cmd;
            chaos_cmd; hunt_cmd; explore_cmd; trace_cmd; load_cmd;
            committee_cmd; route_cmd;
            profile_cmd;
            metrics_cmd ]))
