(** The load scheduler: thousands of concurrent payments in one engine run.

    {!run} multiplexes [workload.payments] payments over a single
    {!Sim.Engine} run. Each payment is a list of protocol instances, and
    each instance runs the unmodified chain protocol over a path of shared
    {!Ledger.Book}s, so all instances contend for the same liquidity. A
    linear workload gives every payment one instance whose path is the
    whole chain; a graph workload gives it up to [splits] instances, one
    per path a {!Routing.Router} picks. Instance [id] (payment [k], split
    [j], [id = k * splits + j]) gets its own block of engine pids at
    [base = 1 + id * stride]; protocol handlers written for a standalone
    payment run unmodified inside a block thanks to the engine's pid
    rebasing ({!Sim.Engine.add_process}).

    Pid 0 is the load controller: it owns the arrival process, the
    admission queue (liquidity reservations and the in-flight cap), the
    per-payment patience and stuck deadlines, and settlement bookkeeping.
    Control traffic ([start] / [traffic-done]) is delivered at the network
    model's lower bound and is exempt from fault tampering, so a fault
    plan shakes the payments, never the harness.

    Every payment is classified on exit and checked against the safety
    subset that survives multiplexing: C (no honest rejection), CS1–CS3
    (certified settlement for Alice / Bob / connectors, conditioned on
    termination and crash exposure exactly like {!Props.Payment_props}),
    plus global conservation over the shared books. HTLC instances skip
    CS1 — the protocol violates it by design (experiment E10). *)

type outcome = Committed | Aborted | Rejected | Stuck | Violated

val outcome_name : outcome -> string

type violation = {
  payment : int;  (** -1 for global (cross-payment) violations *)
  property : string;  (** "C", "CS1", "CS2", "CS3" or "ES/M" *)
  detail : string;
}

type routing_stats = {
  topology : string;  (** canonical {!Routing.Topology.to_string} form *)
  strategy : string;  (** ["shortest"] or ["round-robin"] *)
  max_splits : int;
  offered_value : int;  (** payments × value *)
  committed_value : int;
      (** value that reached a sink across all paid splits — partially
          committed payments count their paid splits here even though the
          payment itself is not [Committed] *)
  paths_selected : int;  (** path choices summed over admissions *)
  split_payments : int;  (** payments admitted over more than one path *)
  partial_payments : int;
      (** aborted payments where at least one split still paid Bob *)
  no_route_rejections : int;
      (** rejected because no disjoint path set could carry the value *)
  instances : int;  (** protocol instances actually started *)
  instances_committed : int;
  instances_settled : int;
}
(** Router-level accounting for graph workloads; see {!report.routing}. *)

type committee_stats = {
  certs : int;  (** batch certificates the sequencer decided *)
  verdicts : int;  (** payment verdicts across all certificates *)
  max_batch : int;  (** largest single certificate *)
  rounds : int;
      (** DLS rounds summed over decided slots; slot_count = certs when
          every slot decided in round 0 *)
  cert_lat_sum : int;
      (** slot-open → certificate ticks summed over decided slots (mean =
          [cert_lat_sum / certs]) *)
  cert_lat_max : int;
}
(** Deterministic shared-committee accounting, read from the sequencer's
    {!Quorum.Committee} state after the run; see {!report.committee_stats}. *)

type report = {
  workload : Workload.t;
  seed : int;
  plan : string;  (** the fault plan's grammar line; ["none"] if empty *)
  status : string;  (** engine exit: quiescent / horizon / event-limit *)
  admitted : int;
  committed : int;
  aborted : int;
  rejected : int;  (** never admitted: queue patience ran out *)
  stuck : int;  (** admitted but unsettled at the stuck deadline *)
  violated : int;
  violations : violation list;
  liquidity_rejections : int;
      (** in-protocol [Insufficient_funds] deposit failures (optimistic
          policy); these are contention, not safety violations *)
  conservation_ok : bool;  (** every shared book audits clean *)
  latency_p50 : int;
  latency_p95 : int;
  latency_p99 : int;
  latency_max : int;
      (** commit latency: arrival (incl. queueing) to Bob's payout; 0 when
          nothing committed *)
  makespan : int;  (** global time when the engine stopped *)
  throughput_cpm : int;  (** committed payments per million ticks *)
  messages : int;  (** total sends, counted before any trace eviction *)
  max_in_flight : int;
  trace_dropped : int;  (** entries evicted by the bounded trace *)
  by_protocol : (string * int * int) list;
      (** (protocol, assigned, committed) in mix order *)
  blame : Obsv.Blame.agg option;
      (** latency decomposition summed over committed payments (and,
          separately, the slowest 1%); [None] unless the run was causally
          traced *)
  blame_reports : (int * Obsv.Blame.report) list;
      (** critical paths of every paid instance of an unviolated payment,
          [(instance, report)] in instance order. On the linear chain an
          instance id is its payment's, so these are the committed
          payments, and each report's [total] is exactly that payment's
          commit latency ([paid_at - arrived_at]) *)
  routing : routing_stats option;
      (** [Some] iff the workload set [topology=]; linear workloads leave
          this [None] and their reports byte-identical to pre-routing
          output. For routed runs, [blame_reports] keys are {e instance}
          ids (payment × max_splits + split index), one per paid split of
          an unviolated payment *)
  committee_stats : committee_stats option;
      (** [Some] iff the workload set [committee=]; other reports leave
          this [None] and stay byte-identical to pre-committee output *)
  events : int;
      (** engine events the run dequeued — deterministic, the numerator of
          the events/sec throughput figure *)
  wall_ns : int;
      (** host wall-clock nanoseconds the run took — the one
          {e nondeterministic} report member; it appears only in
          [to_json]'s trailing ["timing"] block, never in {!pp_summary} *)
}

val run :
  ?plan:Faults.Fault_plan.t ->
  ?trace_capacity:int ->
  ?causal:Obsv.Causal.t ->
  ?prof:Obsv.Prof.t ->
  ?monitor:Obsv.Monitor.t ->
  ?sampler:Obsv.Sampler.t ->
  ?recorder:Obsv.Recorder.t ->
  workload:Workload.t ->
  seed:int ->
  unit ->
  report
(** One deterministic load run: equal [(workload, seed, plan)] gives a
    bit-identical {!report}. Raises [Invalid_argument] on an invalid
    workload or a plan that does not validate against the block's logical
    pid space (plans address {e hosts} — logical pids [0 .. stride-1] —
    and apply to every instance block, because one crashed escrow host
    takes that escrow down for every payment that routes through it).

    The workload's [topology] picks the liquidity model; nothing else in
    the run depends on it. On the linear chain ([topology = None]) book
    [i] is escrow [i]'s, payer [c_i]'s account there is the shared pool,
    and under [Reserve] admission holds a counter per leg until that
    leg's deposit lands. On a graph ([topology = Some g]) each payment is
    split by a {!Routing.Router} into up to [splits] edge-disjoint paths
    over one book per edge: admission reserves each leg's amount by
    transferring it from the edge's funder account (whose balance {e is}
    the edge's available liquidity), and closing a settled split sweeps
    the unspent reservation back. A payment commits iff {e every} split
    pays its sink; [report.routing] carries the router-level accounting,
    including partially-paid aborts.

    An instance's protocol environment is built when its payment is
    admitted, and each process builds its role's handlers on its first
    [start]; until then it buffers what it receives.

    [trace_capacity] bounds the engine trace (default 4096; 0 keeps it
    unbounded). Accounting ingests trace records through a hook as they
    happen, so eviction never affects the report.

    Emits [xchain_load_*] metrics (plus [xchain_route_*] on a graph) into
    {!Obsv.Metrics.default} and, when span capture is on, one root span
    plus a span per payment. Stuck payments' spans are force-closed with
    status ["stuck"] at the run's stuck horizon, never exported
    open-ended.

    [causal] arms happens-before recording in the engine (see
    {!Sim.Engine.create}): the scheduler stamps each instance's nodes with
    its id as the trace id, anchors a root note at every arrival and a
    [Queue]-edged note at every admission, and fills [report.blame] /
    [report.blame_reports] with the critical-path decomposition of every
    paid instance of an unviolated payment. Payment spans are then linked
    to the DAG via their [trace]/[root_event] fields. Tracing adds nodes,
    never events: the schedule, and hence every other report field, is
    unchanged.

    [monitor] arms online runtime verification (see {!Obsv.Monitor}):
    the scheduler registers the {e same} conservation audit the report's
    [conservation_ok] runs post-hoc — per shared book, plus (graph) a
    liquidity-never-exceeded check on every edge's funder account — as
    per-dispatch checks, so the monitor's final verdict agrees with the
    report by construction. A stop-on-violation monitor ends the run at
    the first breach with status ["violation-stop"]. [sampler] records a
    sim-time series per {!Obsv.Sampler} interval: queue depth, in-flight
    and admitted payments, and per-escrow pooled funds (per-edge
    liquidity on a graph). [recorder] keeps the flight-recorder event
    ring for forensic bundles. None of the three changes the schedule.

    [prof] arms the dispatch profiler (see {!Sim.Engine.create}).
    Processes are labeled by role — ["sched"] (the controller), on the
    linear chain ["alice"], ["chloe"], ["bob"], ["escrow"], ["aux"]
    (TMs/notaries), ["idle"] (pid-space padding), on a graph ["alice"]
    and ["node"] (the path, hence the role layout, is fixed only at
    admission) — and, combined with [causal], dispatches attribute to
    individual payments. Like tracing, profiling never changes the
    schedule or the report. *)

val to_json : report -> string
(** Stable field order, integers and escaped strings only — byte-identical
    across runs with equal inputs {e except} the trailing ["timing"]
    member (wall_ns, events_per_sec), which reports host wall clock.
    Byte-identity checks strip it first (scripts/strip_timing.py; the
    cram suite does the same with [sed]). *)

val pp_summary : Format.formatter -> report -> unit
(** Human-readable multi-line summary for the CLI. *)
