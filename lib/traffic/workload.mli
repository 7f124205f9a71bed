(** Workload specifications for multi-payment load runs.

    A workload is pure data: how many payments, over which topology, which
    protocol mix, how they arrive, and under which admission policy they
    contend for the shared escrow liquidity. {!Load} turns a workload plus
    a seed into one deterministic engine run.

    Workloads serialize to a one-line [key=value] grammar so a load report
    can embed its exact spec and every run replays bit-for-bit:

    {v
    payments=1000 hops=2 value=1000 commission=10 arrival=poisson:40
    mix=sync:1,weak:1 policy=reserve cap=64 liquidity=0 patience=2000
    stuck=0 drift=10000 gst=none
    v} *)

type arrival =
  | Poisson of { gap : int }
      (** open loop: inter-arrival gaps are 1 + Exp(gap) ticks *)
  | Closed of { clients : int; think : int }
      (** closed loop: [clients] clients, each issuing its next payment
          [think] ticks after its previous one settles *)
  | Burst of { size : int; every : int }
      (** [size] simultaneous arrivals every [every] ticks *)
  | Ramp of { gap_hi : int; gap_lo : int }
      (** open loop with the mean gap shrinking linearly from [gap_hi]
          (first arrival) to [gap_lo] (last): a ramp-up to peak rate *)

type proto = Sync | Naive | Htlc | Weak_single | Committee | Shared | Atomic
(** [Shared] runs the weak protocol with {e no} per-payment TM: all shared
    payments in the run send their funded reports and abort requests to
    one external batching notary committee (the workload's [committee]
    spec), whose certificates cover many payments at once. *)

type committee = {
  c_family : string;  (** ["majority"], ["weighted"] or ["grid"] *)
  c_size : int;  (** replicas (grid: must be a perfect square) *)
  c_f : int;  (** Byzantine fault bound the quorum system tolerates *)
  c_batch : int;  (** max verdicts per certificate *)
  c_pipeline : int;  (** max concurrently undecided slots *)
  c_faulty : int;
      (** replicas actually failed in the run (crash-silent), placed at
          indices [1 .. c_faulty] — never the sequencer; <= [c_f] *)
}
(** The shared committee's shape — pure data; {!quorum_system} builds the
    validated {!Quorum_system.t} from it. *)

type policy =
  | Reserve
      (** admission reserves every leg's amount on the payer accounts, so
          in-protocol deposits never fail; contention shows up as queueing
          and admission rejections. Safe for every protocol. *)
  | Optimistic
      (** admission checks nothing; deposits race for the shared balances
          and losers see real [Insufficient_funds] rejections. Only legal
          for funding-checked protocols (weak, committee, atomic, htlc)
          whose escrows stop a leg on a failed deposit. *)

type t = {
  payments : int;
  hops : int;
  value : int;
  commission : int;
  arrival : arrival;
  mix : (proto * int) list;  (** protocol weights; must be non-empty *)
  policy : policy;
  cap : int;  (** max payments in flight per escrow; 0 = unlimited *)
  liquidity : int;
      (** payer-account funding, in multiples of one payment's leg amount;
          0 = [payments] (ample — no liquidity contention) *)
  patience : int;
      (** ticks an arrived payment may wait in the admission queue before
          it is rejected *)
  stuck_after : int;
      (** ticks after admission before an unsettled payment is classified
          stuck; 0 = derived from the mix's protocol horizons *)
  drift_ppm : int;
  gst : int option;  (** [Some g]: partially-synchronous network with GST g *)
  topology : Routing.Topology.t option;
      (** [Some t]: payments route source→sink over the escrow graph [t]
          instead of the linear [hops] chain (which [t] then supersedes);
          liquidity and commissions come from the graph's edges. [None]
          preserves the linear behavior bit-for-bit. *)
  route : Routing.Router.strategy;
      (** path-selection strategy under a graph topology *)
  splits : int;
      (** max edge-disjoint paths one payment may split across; 1 =
          single-path routing *)
  committee : committee option;
      (** the shared batching committee; required iff [Shared] is in the
          mix, linear workloads only *)
}

val default : payments:int -> t
(** 2 hops, value 1000, commission 10, poisson gap 40, mix [sync:1],
    reserve policy, unlimited cap, ample liquidity, patience 2000,
    derived stuck deadline, drift 10000 ppm, synchronous network, no
    topology (linear), shortest-cost routing, 1 split. *)

val proto_name : proto -> string
val proto_of_string : string -> (proto, string) result
val pp_proto : Format.formatter -> proto -> unit

val arrival_of_string : string -> (arrival, string) result
(** [poisson:GAP], [closed:CLIENTS:THINK], [burst:SIZE:EVERY] or
    [ramp:HI:LO]. *)

val mix_of_string : string -> ((proto * int) list, string) result
(** Comma-separated [name:weight] entries; a bare name means weight 1. *)

val policy_of_string : string -> (policy, string) result

val committee_of_string : string -> (committee, string) result
(** [family:size:f:batch:pipeline[:faulty]]; [faulty] defaults to 0. *)

val committee_to_string : committee -> string
val quorum_system : committee -> (Quorum_system.t, string) result
(** The committee's validated quorum system, or why the spec cannot
    build one: a field out of range, an unknown family, a grid size that
    is not a perfect square, or a system in which no quorum survives [f]
    faults. {!validate} and {!Load.run} both go through it. *)

val validate : t -> (unit, string) result
(** Structural sanity plus the policy/protocol compatibility rules:
    [Optimistic] forbids [Sync]/[Naive] in the mix (their escrows barrel
    ahead on a failed deposit), [Naive] requires [drift_ppm = 0] (the
    naive protocol is only correct without drift — E3's point), and a
    graph [topology] requires [Reserve] (routed admission reserves each
    split's legs against per-edge liquidity) with the [liquidity] knob
    left at 0 (edge liquidity lives in the topology spec). *)

val to_string : t -> string
(** The one-line grammar above; [of_string (to_string w)] = [Ok w] up to
    topology normalization. The [topology=]/[route=]/[splits=] keys are
    printed only when a topology is set, and [committee=] only when a
    shared committee is configured, so existing workloads keep their
    historical spec lines byte-for-byte. *)

val of_string : string -> (t, string) result

val assign_mix : t -> seed:int -> proto array
(** The per-payment protocol assignment: deterministic weighted draws,
    one per payment, from a stream seeded by [seed] alone. *)

val arrivals : t -> seed:int -> int array option
(** Open-loop arrival ticks per payment (monotone), or [None] for the
    closed-loop arrival process (arrival times are settle-driven).
    Deterministic in [seed]. *)

val pp : Format.formatter -> t -> unit
