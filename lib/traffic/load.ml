open Sim
open Protocols

type outcome = Committed | Aborted | Rejected | Stuck | Violated

let outcome_name = function
  | Committed -> "committed"
  | Aborted -> "aborted"
  | Rejected -> "rejected"
  | Stuck -> "stuck"
  | Violated -> "violated"

type violation = { payment : int; property : string; detail : string }

type routing_stats = {
  topology : string;
  strategy : string;
  max_splits : int;
  offered_value : int;
  committed_value : int;
  paths_selected : int;
  split_payments : int;
  partial_payments : int;
  no_route_rejections : int;
  instances : int;
  instances_committed : int;
  instances_settled : int;
}

type committee_stats = {
  certs : int;
  verdicts : int;
  max_batch : int;
  rounds : int;
  cert_lat_sum : int;
  cert_lat_max : int;
}

type report = {
  workload : Workload.t;
  seed : int;
  plan : string;
  status : string;
  admitted : int;
  committed : int;
  aborted : int;
  rejected : int;
  stuck : int;
  violated : int;
  violations : violation list;
  liquidity_rejections : int;
  conservation_ok : bool;
  latency_p50 : int;
  latency_p95 : int;
  latency_p99 : int;
  latency_max : int;
  makespan : int;
  throughput_cpm : int;
  messages : int;
  max_in_flight : int;
  trace_dropped : int;
  by_protocol : (string * int * int) list;
  blame : Obsv.Blame.agg option;
  blame_reports : (int * Obsv.Blame.report) list;
  routing : routing_stats option;
  committee_stats : committee_stats option;
  events : int;
  wall_ns : int;
}

(* Shared model parameters for every payment in a load run; per-protocol
   windows are derived from these exactly as Runner does. *)
let delta = 100
let sigma = 10
let margin = 5

(* Auxiliary (TM/notary) processes per protocol. The committee runs with
   f = 1, i.e. 3f+1 = 4 notaries — enough to exercise consensus without
   quadrupling the pid space. *)
let aux_count = function
  | Workload.Sync | Workload.Naive | Workload.Htlc -> 0
  | Workload.Weak_single | Workload.Atomic -> 1
  | Workload.Committee -> 4
  (* shared payments have no per-payment TM: one external committee block
     serves them all (registered after the payment blocks) *)
  | Workload.Shared -> 0

let block_size ~hops proto = (2 * hops) + 1 + aux_count proto

let weak_cfg = Weak_protocol.default_config

let committee_cfg =
  { Weak_protocol.default_config with tm = Weak_protocol.Committee { f = 1 } }


let params_for (w : Workload.t) proto hops =
  let drift = match proto with Workload.Naive -> 0 | _ -> w.drift_ppm in
  Params.derive { Params.hops; delta; sigma; drift_ppm = drift; margin }

(* ------------------------------------------------------------------ *)

(* One protocol instance: one split of a payment (on a linear chain, the
   whole payment), running the plain linear protocol over the shared books
   of its path. Everything but the accounting arrays is configured at
   admission, once the path is known. *)
type inst = {
  mutable hops : int;
  mutable value : int;
  mutable path : int array;  (** book indices along the path *)
  mutable amounts : int array;  (** leg amounts, commissions included *)
  mutable mk : (int -> (Msg.t, Obs.t) Engine.handlers) option;
      (** per-role handler factory; [Some] once admitted *)
  mutable settled_at : int;  (** every customer has Terminated *)
  mutable paid_at : int;  (** first Released to Bob *)
  mutable counted : bool;  (** settlement counted toward the payment *)
  flows : int array;  (** net ledger flow per customer index *)
  terms : bool array;
  mutable term_count : int;
  mutable alice_cert : bool;
  mutable bob_cert_issued : bool;
  mutable rejections : (int * string) list;
  deposited : int array;  (** per leg: deposits drawn from the payer *)
  refunded : int array;  (** per leg: refunds returned to the payer *)
  held : bool array;  (** per leg: an admission counter is still held *)
}

type payment = {
  proto : Workload.proto;
  mutable arrived_at : int;
  mutable admitted_at : int;
  mutable closed : bool;  (** scheduler stopped tracking it *)
  mutable splits : int list;  (** instance ids, ascending *)
  mutable no_route : bool;
  mutable settled : int;  (** instances settled so far *)
}

let percentile sorted q =
  let n = Array.length sorted in
  if n = 0 then 0
  else
    let rank = ((q * n) + 99) / 100 in
    sorted.(max 0 (min (n - 1) (rank - 1)))

let is_liquidity_rejection what =
  (* Book.pp_error Insufficient_funds, wrapped by the escrows' "deposit: "
     prefix; Unknown_account prints "deposit: unknown account …" and so
     stays a real violation. *)
  let prefix = "deposit: account" in
  String.length what >= String.length prefix
  && String.sub what 0 (String.length prefix) = prefix

let book_ok b =
  (match Ledger.Book.audit b with Ok () -> true | Error _ -> false)
  && List.for_all (fun (_, bal) -> bal >= 0) (Ledger.Book.accounts b)

let run ?(plan = Faults.Fault_plan.none) ?(trace_capacity = 4096) ?causal
    ?prof ?monitor ?sampler ?recorder ~(workload : Workload.t) ~seed () =
  (match Workload.validate workload with
  | Ok () -> ()
  | Error e -> invalid_arg ("Load.run: " ^ e));
  let wall_t0 = Fleet.now_ns () in
  let w = workload in
  let module RT = Routing.Topology in
  let module RR = Routing.Router in
  let graph = w.topology in
  let protos = Workload.assign_mix w ~seed in
  let arrivals = Workload.arrivals w ~seed in
  (* a linear chain is the single path of [hops] legs; on a graph the pid
     stride must fit the longest simple path any route can take *)
  let lmax = match graph with None -> w.hops | Some g -> g.RT.nodes - 1 in
  let max_splits = w.splits in
  let instances = w.payments * max_splits in
  let stride =
    List.fold_left
      (fun acc (p, _) -> max acc (block_size ~hops:lmax p))
      0 w.mix
  in
  (* Fault plans address hosts: logical pids 0 .. stride-1, applied to
     every instance block (one crashed escrow host is down for everyone). *)
  (match Faults.Fault_plan.validate plan ~nprocs:stride with
  | Ok () -> ()
  | Error e -> invalid_arg ("Load.run: bad fault plan: " ^ e));
  (* The liquidity model. A linear chain's book i is escrow host e_i's:
     customer c_i's funding there is what all payments contend for, and
     under [Reserve] admission holds a counter per leg until the deposit
     lands. A graph gets one book per edge, where a distinguished funder
     account holds the edge's liquidity: admission moves each leg's amount
     from the funder to the split's local payer account (the transfer IS
     the reservation), and closing a settled split sweeps the unspent part
     back. The funder's balance is therefore always the edge's spendable
     liquidity, and per-book conservation holds by construction. *)
  let book_kind = match graph with None -> "escrow" | Some _ -> "edge" in
  let funder = 1_000_000 in
  let chain_amounts =
    Array.init w.hops (fun i -> w.value + (w.commission * (w.hops - 1 - i)))
  in
  let books =
    match graph with
    | None ->
        let units = if w.liquidity = 0 then w.payments else w.liquidity in
        let topo = Topology.create ~hops:w.hops in
        Array.init w.hops (fun i ->
            let b = Ledger.Book.create ~currency:(Printf.sprintf "cur%d" i) in
            Ledger.Book.open_account b ~owner:(Topology.customer topo i)
              ~balance:(units * chain_amounts.(i));
            Ledger.Book.open_account b
              ~owner:(Topology.customer topo (i + 1))
              ~balance:0;
            Ledger.Book.open_account b ~owner:(Topology.escrow topo i)
              ~balance:0;
            b)
    | Some g ->
        let ample = w.payments * (w.value + RT.total_commission g) in
        Array.init (Array.length g.RT.edges) (fun e ->
            let b = Ledger.Book.create ~currency:(Printf.sprintf "edge%d" e) in
            let liq = g.RT.edges.(e).RT.liquidity in
            Ledger.Book.open_account b ~owner:funder
              ~balance:(if liq = 0 then ample else liq);
            b)
  in
  let avail e = Ledger.Book.balance books.(e) funder in
  let counters = graph = None && w.policy = Workload.Reserve in
  let reserved = Array.make (Array.length books) 0 in
  let router = Option.map (fun g -> RR.create ~strategy:w.route g) graph in
  (* A protocol's settle horizon, for the derived stuck deadline. Scratch
     envs (private books) only feed window derivation. *)
  let proto_horizon proto =
    match proto with
    | Workload.Sync | Workload.Naive -> (params_for w proto lmax).Params.horizon
    | Workload.Htlc ->
        let env0 =
          Env.make ~topo:(Topology.create ~hops:lmax)
            ~params:(params_for w proto lmax) ~value:w.value
            ~commission:w.commission ~seed:(seed + 9991) ()
        in
        Htlc_protocol.window_of env0 (Htlc_protocol.default_config env0) 0
    | Workload.Weak_single | Workload.Committee | Workload.Shared ->
        weak_cfg.patience
    | Workload.Atomic -> Atomic_protocol.default_config.deadline
  in
  let gst_slack = match w.gst with Some g -> 2 * g | None -> 0 in
  let stuck_eff =
    if w.stuck_after > 0 then w.stuck_after
    else
      let base =
        List.fold_left (fun acc (p, _) -> max acc (proto_horizon p)) 0 w.mix
      in
      (* ×4 absorbs clock drift and queueing inside the protocol windows *)
      (4 * base) + (20 * delta) + gst_slack
  in
  let horizon =
    let last_arrival =
      match arrivals with
      | Some arr -> arr.(Array.length arr - 1)
      | None -> (
          match w.arrival with
          | Workload.Closed { clients; think } ->
              let rounds = (w.payments + clients - 1) / clients in
              rounds * (w.patience + stuck_eff + think + 1)
          | _ -> 0)
    in
    last_arrival + w.patience + (2 * stuck_eff) + (20 * delta) + gst_slack
  in
  let max_events =
    (1000 * instances) + 100_000
    (* committee consensus traffic is quadratic in committee size per
       certified slot; give it headroom without touching the budget of
       committee-less runs *)
    + (match w.committee with
      | Some c ->
          let slots =
            (w.payments + c.Workload.c_batch - 1) / c.Workload.c_batch
          in
          (slots + (4 * c.Workload.c_pipeline))
          * 4 * c.Workload.c_size * c.Workload.c_size
      | None -> 0)
  in
  (* --- network: model + fault injection, control traffic exempt --- *)
  let injector =
    if Faults.Fault_plan.is_none plan then None
    else Some (Faults.Injector.create ~plan ~seed:(seed + 47) ())
  in
  let model =
    let base =
      match w.gst with
      | None -> Network.Synchronous { delta }
      | Some gst -> Network.Partially_synchronous { gst; delta }
    in
    match injector with
    | None -> base
    | Some inj -> Faults.Injector.jittered_model inj base
  in
  let tamper =
    Option.map
      (fun inj ->
        let tam = Faults.Injector.tamper inj in
        (* fault plans address instance-block hosts; the controller (pid 0)
           and the shared committee block (pids past the instance blocks)
           are outside their pid space and stay exempt *)
        let block_limit = 1 + (instances * stride) in
        fun ~send_time ~src ~dst ~tag ->
          if src = 0 || dst = 0 || src >= block_limit || dst >= block_limit
          then [ Network.Intact ]
          else
            tam ~send_time
              ~src:((src - 1) mod stride)
              ~dst:((dst - 1) mod stride)
              ~tag)
      injector
  in
  let adversary ~send_time:_ ~src:_ ~dst:_ ~tag ~bounds =
    if tag = "start" || tag = "traffic-done" then Some bounds.Network.lo
    else None
  in
  let network =
    Network.create ~adversary ?tamper ~link_stats:false model
      (Rng.create ~seed:(seed + 17))
  in
  let trace_cap = if trace_capacity = 0 then None else Some trace_capacity in
  let engine =
    Engine.create ~tag_of:Msg.tag ~network ~sigma ?trace_capacity:trace_cap
      ?causal ?prof ?monitor ?sampler ?recorder ~seed ()
  in
  (* --- per-instance accounting state, fed by a trace hook --- *)
  let insts =
    Array.init instances (fun _ ->
        {
          hops = 0;
          value = 0;
          path = [||];
          amounts = [||];
          mk = None;
          settled_at = -1;
          paid_at = -1;
          counted = false;
          flows = Array.make (lmax + 1) 0;
          terms = Array.make (lmax + 1) false;
          term_count = 0;
          alice_cert = false;
          bob_cert_issued = false;
          rejections = [];
          deposited = Array.make lmax 0;
          refunded = Array.make lmax 0;
          held = Array.make lmax false;
        })
  in
  let pays =
    Array.init w.payments (fun k ->
        {
          proto = protos.(k);
          arrived_at = -1;
          admitted_at = -1;
          closed = false;
          splits = [];
          no_route = false;
          settled = 0;
        })
  in
  let messages = ref 0 in
  (* causal anchors: each payment's arrival note (blame root) and, per
     instance, the deliver that paid Bob (blame sink), captured from the
     dispatch context *)
  let roots = Array.make w.payments (-1) in
  let paid_nodes = Array.make instances (-1) in
  Trace.on_record (Engine.trace engine) (fun entry ->
      match entry with
      | Trace.Sent _ -> incr messages
      | Trace.Observed { t; pid; obs } when pid >= 1 ->
          let id = (pid - 1) / stride in
          let ins = insts.(id) in
          let h = ins.hops in
          (match obs with
          | Obs.Deposited { escrow; depositor; amount; _ } ->
              (* the depositor index IS the leg index: customer i
                 deposits only at escrow i *)
              if depositor >= 0 && depositor <= h then begin
                ins.flows.(depositor) <- ins.flows.(depositor) - amount;
                if depositor < h then
                  ins.deposited.(depositor) <-
                    ins.deposited.(depositor) + amount
              end;
              (* the deposit consumes its leg's admission counter *)
              let i = escrow - h - 1 in
              if i >= 0 && i < h && ins.held.(i) then begin
                ins.held.(i) <- false;
                reserved.(ins.path.(i)) <-
                  reserved.(ins.path.(i)) - ins.amounts.(i)
              end
          | Obs.Released { to_; amount; _ } ->
              if to_ >= 0 && to_ <= h then begin
                ins.flows.(to_) <- ins.flows.(to_) + amount;
                if to_ = h && ins.paid_at < 0 then begin
                  ins.paid_at <- t;
                  paid_nodes.(id) <- Engine.current_node engine
                end
              end
          | Obs.Refunded { depositor; amount; _ } ->
              if depositor >= 0 && depositor <= h then begin
                ins.flows.(depositor) <- ins.flows.(depositor) + amount;
                if depositor < h then
                  ins.refunded.(depositor) <-
                    ins.refunded.(depositor) + amount
              end
          | Obs.Cert_received
              { pid = who; kind = Obs.Chi | Obs.Chi_commit; valid = true }
            when who = 0 ->
              ins.alice_cert <- true
          | Obs.Cert_issued { by; _ } when by = h ->
              ins.bob_cert_issued <- true
          | Obs.Terminated { pid = who; _ }
            when who >= 0 && who <= h && not ins.terms.(who) ->
              ins.terms.(who) <- true;
              ins.term_count <- ins.term_count + 1;
              if ins.term_count = h + 1 && ins.settled_at < 0 then
                ins.settled_at <- t
          | Obs.Rejected { pid = who; what } ->
              ins.rejections <- (who, what) :: ins.rejections
          | _ -> ())
      | _ -> ());
  (* --- shared batching committee: one block after the instance blocks --- *)
  let shared_committee =
    Option.map
      (fun c ->
        (* [run] validated the workload, so the spec builds *)
        let qs = Result.get_ok (Workload.quorum_system c) in
        let n = c.Workload.c_size in
        let creg = Xcrypto.Auth.create ~seed:(seed + 71) in
        let signers = Array.init n (fun i -> Xcrypto.Auth.register creg i) in
        let cbase = 1 + (instances * stride) in
        let part_count = (2 * w.hops) + 1 in
        let ccfg =
          {
            Committee_tm.qs;
            registry = creg;
            batch_cap = c.Workload.c_batch;
            pipeline = c.Workload.c_pipeline;
            base_timeout = weak_cfg.Weak_protocol.tm_base_timeout;
            reply_to =
              (fun item ->
                if item >= 0 && item < w.payments then
                  Array.init part_count (fun l -> 1 + (item * stride) + l)
                else [||]);
            hops_of = (fun _ -> w.hops);
          }
        in
        (c, ccfg, signers, cbase))
      w.committee
  in
  let handlers_for proto env id =
    match proto with
    | Workload.Sync | Workload.Naive ->
        fun l ->
          fst (Anta.Executor.handlers (Sync_protocol.automaton_for env l) ())
    | Workload.Htlc ->
        let cfg = Htlc_protocol.default_config env in
        let preimage = Htlc_protocol.fresh_preimage ~seed:(seed + 57 + id) in
        Htlc_protocol.handlers_for env cfg preimage
    | Workload.Weak_single -> Weak_protocol.handlers_for env weak_cfg
    | Workload.Committee -> Weak_protocol.handlers_for env committee_cfg
    | Workload.Shared ->
        (* shared payments have no per-payment TM: their reports go to the
           external committee, which validation guarantees exists *)
        let c, ccfg, signers, cbase = Option.get shared_committee in
        Weak_protocol.handlers_for env
          {
            weak_cfg with
            Weak_protocol.tm =
              Weak_protocol.Shared
                {
                  pids = Array.init c.Workload.c_size (fun i -> cbase + i);
                  item = id;
                  verify = Committee_tm.verify ccfg ~signer:signers.(0);
                };
          }
    | Workload.Atomic ->
        Atomic_protocol.handlers_for env Atomic_protocol.default_config
  in
  (* --- controller (pid 0): arrivals, admission, deadlines --- *)
  let queue = Queue.create () in
  let in_flight = ref 0 in
  let max_in_flight = ref 0 in
  let admitted = ref 0 in
  let total_paths = ref 0 in
  let split_payments = ref 0 in
  let arr_label k = "arr#" ^ string_of_int k in
  let pat_label k = "pat#" ^ string_of_int k in
  let stuck_label k = "stuck#" ^ string_of_int k in
  (* the splits payment [k] runs over — (path, value, leg amounts) each —
     or [None] while the liquidity cannot carry it *)
  let chain = [ (Array.init w.hops Fun.id, w.value, chain_amounts) ] in
  let route k =
    match router with
    | Some r -> (
        match RR.route r ~avail ~value:w.value ~max_splits with
        | Error _ ->
            pays.(k).no_route <- true;
            None
        | Ok splits ->
            Some
              (List.map
                 (fun (s : RR.split) ->
                   ( Array.of_list s.RR.path,
                     s.RR.value,
                     RR.leg_amounts (RR.topology r) ~path:s.RR.path
                       ~value:s.RR.value ))
                 splits))
    | None ->
        let fits = ref true in
        if counters then
          Array.iteri
            (fun i b ->
              if Ledger.Book.balance b i - reserved.(i) < chain_amounts.(i)
              then fits := false)
            books;
        if !fits then Some chain else None
  in
  let reserve ins =
    Array.iteri
      (fun i b ->
        if graph <> None then
          (* the router checked capacity against the funder balance in this
             same handler; leave any breakage to the conservation audit *)
          ignore
            (Ledger.Book.transfer books.(b) ~src:funder ~dst:i
               ~amount:ins.amounts.(i))
        else if counters then begin
          ins.held.(i) <- true;
          reserved.(b) <- reserved.(b) + ins.amounts.(i)
        end)
      ins.path
  in
  (* give a settled instance's unspent collateral back: its held counters,
     or, on a graph, the reserved-but-undeposited plus refunded value of
     each leg's local payer account. That account may pool several live
     splits' money (deposits draw fungibly), but each split's term is
     non-negative and their sum is the account balance, so sweeping one
     split's term is always covered. *)
  let release id =
    let ins = insts.(id) in
    Array.iteri
      (fun i b ->
        if graph <> None then begin
          let back = ins.amounts.(i) - ins.deposited.(i) + ins.refunded.(i) in
          if back > 0 then
            ignore
              (Ledger.Book.transfer books.(b) ~src:i ~dst:funder ~amount:back)
        end
        else if ins.held.(i) then begin
          ins.held.(i) <- false;
          reserved.(b) <- reserved.(b) - ins.amounts.(i)
        end)
      ins.path
  in
  let try_admit ctx k =
    let p = pays.(k) in
    (w.cap = 0 || !in_flight < w.cap)
    &&
    match route k with
    | None -> false
    | Some splits ->
        p.admitted_at <- Engine.now engine;
        incr admitted;
        incr in_flight;
        if !in_flight > !max_in_flight then max_in_flight := !in_flight;
        total_paths := !total_paths + List.length splits;
        if List.length splits > 1 then incr split_payments;
        List.iteri
          (fun j (path, value, amounts) ->
            let id = (k * max_splits) + j in
            let h = Array.length path in
            let env =
              Env.make ~topo:(Topology.create ~hops:h)
                ~params:(params_for w p.proto h) ~payment:id ~value ~amounts
                ~seed:(seed + 101 + id)
                ~books:(Array.map (fun b -> books.(b)) path)
                ()
            in
            let ins = insts.(id) in
            ins.hops <- h;
            ins.value <- value;
            ins.path <- path;
            ins.amounts <- amounts;
            reserve ins;
            ins.mk <- Some (handlers_for p.proto env id);
            p.splits <- p.splits @ [ id ];
            (* Queue edge from the arrival note: the gap the walk crosses
               here is exactly this payment's wait behind admission *)
            ignore
              (Engine.causal_note ctx ~after:roots.(k) ~trace:id
                 ~label:("admit#" ^ string_of_int id)
                 ());
            let base = 1 + (id * stride) in
            for l = 0 to block_size ~hops:h p.proto - 1 do
              Engine.send ctx ~dst:(base + l) Msg.Start
            done)
          splits;
        Engine.set_timer_after ctx ~after:stuck_eff ~label:(stuck_label k);
        Engine.cancel_timer ctx ~label:(pat_label k);
        true
  in
  let drain ctx =
    let blocked = ref false in
    while (not !blocked) && not (Queue.is_empty queue) do
      let k = Queue.peek queue in
      let p = pays.(k) in
      if p.closed || p.admitted_at >= 0 then ignore (Queue.pop queue)
      else if try_admit ctx k then ignore (Queue.pop queue)
      else blocked := true
    done
  in
  (* Settled instances give their collateral back; an unsettled one (a
     stuck payment's) may still deposit, so its reservations stay locked:
     releasing them would double-spend the collateral. *)
  let close ctx k =
    let p = pays.(k) in
    if not p.closed then begin
      p.closed <- true;
      if p.admitted_at >= 0 then decr in_flight;
      List.iter
        (fun id -> if insts.(id).settled_at >= 0 then release id)
        p.splits;
      Engine.cancel_timer ctx ~label:(stuck_label k);
      (match w.arrival with
      | Workload.Closed { clients; think } ->
          let next = k + clients in
          if next < w.payments then
            Engine.set_timer_after ctx ~after:(max 1 think)
              ~label:(arr_label next)
      | _ -> ());
      drain ctx
    end
  in
  let arrive ctx k =
    pays.(k).arrived_at <- Engine.now engine;
    roots.(k) <-
      Engine.causal_note ctx ~trace:(k * max_splits)
        ~label:("arrive#" ^ string_of_int k)
        ();
    Queue.add k queue;
    Engine.set_timer_after ctx ~after:w.patience ~label:(pat_label k);
    drain ctx
  in
  let controller =
    {
      Engine.on_start =
        (fun ctx ->
          match arrivals with
          | Some arr ->
              Array.iteri
                (fun k t ->
                  Engine.set_timer ctx ~deadline:t ~label:(arr_label k))
                arr
          | None -> (
              match w.arrival with
              | Workload.Closed { clients; _ } ->
                  for c = 0 to min clients w.payments - 1 do
                    (* 1-tick stagger keeps first-round admission ordered *)
                    Engine.set_timer ctx ~deadline:(1 + c)
                      ~label:(arr_label c)
                  done
              | _ -> assert false));
      on_receive =
        (fun ctx ~src:_ msg ->
          match msg with
          | Msg.Traffic_done { payment = id } ->
              let ins = insts.(id) in
              let k = id / max_splits in
              let p = pays.(k) in
              if (not ins.counted) && ins.settled_at >= 0 then begin
                ins.counted <- true;
                p.settled <- p.settled + 1;
                if p.settled = List.length p.splits then close ctx k
              end
          | _ -> ());
      on_timer =
        (fun ctx ~label ->
          match String.split_on_char '#' label with
          | [ "arr"; k ] -> arrive ctx (int_of_string k)
          | [ "pat"; k ] ->
              let k = int_of_string k in
              if pays.(k).admitted_at < 0 then close ctx k
          | [ "stuck"; k ] -> close ctx (int_of_string k)
          | _ -> ())
    }
  in
  let cpid =
    Engine.add_process engine ~clock:Clock.perfect ~label:"sched" controller
  in
  assert (cpid = 0);
  (* --- instance blocks: each process is a buffering shell that builds its
     role's handlers on Start, once admission has fixed the path --- *)
  let clock_rng = Rng.create ~seed:(seed + 31) in
  let shell ~id ~l ~abs ~skew =
    let started = ref false in
    let reported = ref false in
    let buffered = ref [] in
    let inner = ref Engine.silent in
    let after_inner ctx =
      if
        l <= insts.(id).hops
        && (not !reported)
        && Engine.is_halted engine abs
      then begin
        reported := true;
        Engine.send_absolute ctx ~dst:0 (Msg.Traffic_done { payment = id })
      end
    in
    {
      Engine.on_start = (fun _ -> ());
      on_receive =
        (fun ctx ~src msg ->
          match msg with
          | Msg.Start -> (
              match insts.(id).mk with
              | Some mk when not !started ->
                  started := true;
                  (* re-anchor the local epoch: the protocol's absolute
                     local deadlines must count from this instance's own
                     start, not from engine time 0 *)
                  let num, den = Clock.rate (Engine.clock_of engine abs) in
                  Engine.set_clock engine ~pid:abs
                    (Clock.create ~l0:skew ~g0:(Engine.now engine) ~num ~den
                       ());
                  let h = mk l in
                  inner := h;
                  h.Engine.on_start ctx;
                  let pending = List.rev !buffered in
                  buffered := [];
                  List.iter
                    (fun (src, m) ->
                      if not (Engine.is_halted engine abs) then
                        h.Engine.on_receive ctx ~src m)
                    pending;
                  after_inner ctx
              | _ -> ())
          | _ ->
              if !started then begin
                !inner.Engine.on_receive ctx ~src msg;
                after_inner ctx
              end
              else buffered := (src, msg) :: !buffered);
      on_timer =
        (fun ctx ~label ->
          if !started then begin
            !inner.Engine.on_timer ctx ~label;
            after_inner ctx
          end);
    }
  in
  (* profiler role labels: constant strings, interned only when the engine
     carries a profiler. A graph instance's path, hence its role layout, is
     unknown until admission. *)
  let label ~bs l =
    if graph <> None then if l = 0 then "alice" else "node"
    else if l = 0 then "alice"
    else if l < w.hops then "chloe"
    else if l = w.hops then "bob"
    else if l <= 2 * w.hops then "escrow"
    else if l < bs then "aux"
    else "idle"
  in
  for id = 0 to instances - 1 do
    let base = 1 + (id * stride) in
    (* no path can give this payment's protocol a wider block *)
    let bs = block_size ~hops:lmax protos.(id / max_splits) in
    for l = 0 to stride - 1 do
      let clock = Clock.random clock_rng ~drift_ppm:w.drift_ppm in
      let skew = Rng.int clock_rng 1001 in
      let handlers =
        if l < bs then shell ~id ~l ~abs:(base + l) ~skew else Engine.silent
      in
      ignore
        (Engine.add_process engine ~clock ~base ~label:(label ~bs l) handlers)
    done
  done;
  (* the shared committee's replicas form one block right after the
     instance blocks; [c_faulty] of them (never the sequencer) are
     crash-silent from the start *)
  let sequencer_com = ref None in
  Option.iter
    (fun (c, ccfg, signers, cbase) ->
      for i = 0 to c.Workload.c_size - 1 do
        let handlers =
          if i >= 1 && i <= c.Workload.c_faulty then Engine.silent
          else begin
            let handlers, com =
              Committee_tm.handlers ccfg ~index:i ~signer:signers.(i)
            in
            if i = 0 then sequencer_com := Some com;
            handlers
          end
        in
        let pid =
          Engine.add_process engine ~clock:Clock.perfect ~base:cbase
            ~label:"notary" handlers
        in
        assert (pid = cbase + i)
      done)
    shared_committee;
  (* host crashes expand to every instance block *)
  List.iter
    (fun (c : Faults.Fault_plan.crash_spec) ->
      for id = 0 to instances - 1 do
        Engine.schedule_crash engine
          ~pid:(1 + (id * stride) + c.pid)
          ~at:c.at ?recover_at:c.recover_at ()
      done)
    plan.Faults.Fault_plan.crashes;
  (* Online checks: exactly the run's post-hoc audit (per-book conservation
     plus non-negative balances) re-evaluated on every dispatch, so the
     monitor's final verdict agrees with the report's [conservation_ok] by
     construction; on a graph also liquidity-never-exceeded — a negative
     funder balance means reservations overdrew the edge. *)
  Option.iter
    (fun m ->
      Obsv.Monitor.register m ~name:"M" (fun () ->
          let bad = ref None in
          Array.iteri
            (fun i b ->
              if !bad = None && not (book_ok b) then
                bad :=
                  Some
                    (Printf.sprintf
                       "shared %s book %d failed its conservation audit"
                       book_kind i))
            books;
          !bad);
      if graph <> None then
        Obsv.Monitor.register m ~name:"LIQ" (fun () ->
            let bad = ref None in
            for e = 0 to Array.length books - 1 do
              if !bad = None && avail e < 0 then
                bad :=
                  Some
                    (Printf.sprintf "edge %d overdrew its liquidity by %d" e
                       (-avail e))
            done;
            !bad))
    monitor;
  Option.iter
    (fun s ->
      let nb = Array.length books in
      let columns =
        "queue_depth" :: "in_flight" :: "admitted"
        :: List.init nb
             (if graph = None then Printf.sprintf "escrow%d_pool"
              else Printf.sprintf "edge%d_liquidity")
      in
      Obsv.Sampler.set_probe s ~columns (fun () ->
          Array.init (3 + nb) (fun i ->
              match i with
              | 0 -> Engine.queue_depth engine
              | 1 -> !in_flight
              | 2 -> !admitted
              | i when graph = None -> Ledger.Book.pool_total books.(i - 3)
              | i -> avail (i - 3))))
    sampler;
  let status = Engine.run ~horizon ~max_events engine in
  let end_time = Engine.now engine in
  (* --- classification: a payment commits iff every split paid Bob --- *)
  let violations = ref [] in
  let liquidity_rejections = ref 0 in
  let partial_payments = ref 0 in
  let no_route_rejections = ref 0 in
  let classify k =
    let p = pays.(k) in
    if p.admitted_at < 0 then begin
      if p.no_route then incr no_route_rejections;
      Rejected
    end
    else begin
      let viols = ref [] in
      let add property detail =
        viols := { payment = k; property; detail } :: !viols
      in
      let all_paid = ref true in
      let all_settled = ref true in
      let any_paid = ref false in
      List.iter
        (fun id ->
          let ins = insts.(id) in
          let h = ins.hops in
          (* violation details name the split on a graph *)
          let split sep =
            if graph = None then "" else Printf.sprintf "split %d%s" id sep
          in
          let hi = if ins.settled_at >= 0 then ins.settled_at else end_time in
          let exposed lp =
            List.exists
              (fun (c : Faults.Fault_plan.crash_spec) ->
                c.pid = lp && c.at <= hi
                &&
                match c.recover_at with
                | None -> true
                | Some r -> r >= p.admitted_at)
              plan.Faults.Fault_plan.crashes
          in
          (* a customer abides unless it, or an adjacent escrow host, was
             crashed while the instance was live — mirrors chaos's
             non-abiding registration *)
          let abides ci =
            (not (exposed ci))
            && (ci = 0 || not (exposed (h + ci)))
            && (ci = h || not (exposed (h + 1 + ci)))
          in
          List.iter
            (fun (who, what) ->
              let liq = is_liquidity_rejection what in
              if liq then incr liquidity_rejections;
              let excused =
                (liq && w.policy = Workload.Optimistic)
                || exposed who
                || (who >= 0 && who <= h && not (abides who))
              in
              if not excused then
                add "C"
                  (Printf.sprintf "%spid %d rejected: %s" (split " ") who
                     what))
            ins.rejections;
          if
            p.proto <> Workload.Htlc && ins.terms.(0) && abides 0
            && ins.flows.(0) < 0
            && not ins.alice_cert
          then
            add "CS1"
              (Printf.sprintf "%salice paid %d without a certificate"
                 (split ": ") (-ins.flows.(0)));
          if
            ins.terms.(h) && abides h && ins.bob_cert_issued && ins.paid_at < 0
          then
            add "CS2"
              (split ": " ^ "bob issued a certificate but was not paid");
          for ci = 1 to h - 1 do
            if ins.terms.(ci) && abides ci && ins.flows.(ci) < 0 then
              add "CS3"
                (Printf.sprintf "%sconnector %d lost %d" (split ": ") ci
                   (-ins.flows.(ci)))
          done;
          if ins.paid_at < 0 then all_paid := false else any_paid := true;
          (* settled for abort purposes: every customer terminated or was
             crash-covered *)
          for ci = 0 to h do
            if not (ins.terms.(ci) || exposed ci) then all_settled := false
          done)
        p.splits;
      if !viols <> [] then begin
        violations := !viols @ !violations;
        Violated
      end
      else if !all_paid && p.splits <> [] then Committed
      else if !all_settled then begin
        if !any_paid then incr partial_payments;
        Aborted
      end
      else Stuck
    end
  in
  let outcomes = Array.init w.payments classify in
  let conservation_ok = Array.for_all book_ok books in
  if not conservation_ok then
    violations :=
      {
        payment = -1;
        property = "ES/M";
        detail =
          Printf.sprintf "a shared %s book failed its conservation audit"
            book_kind;
      }
      :: !violations;
  let count o =
    Array.fold_left (fun a x -> if x = o then a + 1 else a) 0 outcomes
  in
  let pay_latency k =
    List.fold_left
      (fun acc id -> max acc insts.(id).paid_at)
      0 pays.(k).splits
    - pays.(k).arrived_at
  in
  let latencies =
    let l = ref [] in
    Array.iteri
      (fun k o -> if o = Committed then l := pay_latency k :: !l)
      outcomes;
    let a = Array.of_list !l in
    Array.sort compare a;
    a
  in
  let committed = count Committed in
  let committed_value = ref 0 in
  let active = ref 0 in
  let instances_committed = ref 0 in
  let instances_settled = ref 0 in
  Array.iter
    (fun ins ->
      if ins.mk <> None then begin
        incr active;
        if ins.paid_at >= 0 then begin
          incr instances_committed;
          committed_value := !committed_value + ins.value
        end;
        if ins.settled_at >= 0 then incr instances_settled
      end)
    insts;
  (* critical-path blame per paid split of every unviolated payment: root =
     its payment's arrival note, sink = the deliver under which its Bob's
     payout was released, so on a linear chain the category gaps sum
     exactly to paid_at - arrived_at, and on a graph partial outcomes stay
     attributable per path. A message departs up to [sigma] after its send
     node (send-side compute), so the largest honest synchronous gap is
     [delta + sigma] — beyond that is GST wait. *)
  let blame_reports =
    match causal with
    | None -> []
    | Some c ->
        let acc = ref [] in
        for id = instances - 1 downto 0 do
          let k = id / max_splits in
          if
            insts.(id).paid_at >= 0
            && outcomes.(k) <> Violated
            && roots.(k) >= 0
            && paid_nodes.(id) >= 0
          then
            acc :=
              ( id,
                Obsv.Blame.attribute ~delta:(delta + sigma) c ~root:roots.(k)
                  ~sink:paid_nodes.(id) )
              :: !acc
        done;
        !acc
  in
  let blame =
    match causal with
    | None -> None
    | Some _ -> Some (Obsv.Blame.aggregate (List.map snd blame_reports))
  in
  let report =
    {
      workload = w;
      seed;
      plan = Faults.Fault_plan.to_string plan;
      status =
        (match status with
        | Engine.Quiescent -> "quiescent"
        | Engine.Horizon_reached -> "horizon"
        | Engine.Event_limit -> "event-limit"
        | Engine.Violation_stop -> "violation-stop");
      admitted = !admitted;
      committed;
      aborted = count Aborted;
      rejected = count Rejected;
      stuck = count Stuck;
      violated = count Violated;
      violations = List.rev !violations;
      liquidity_rejections = !liquidity_rejections;
      conservation_ok;
      latency_p50 = percentile latencies 50;
      latency_p95 = percentile latencies 95;
      latency_p99 = percentile latencies 99;
      latency_max =
        (if Array.length latencies = 0 then 0
         else latencies.(Array.length latencies - 1));
      makespan = end_time;
      throughput_cpm =
        (if end_time = 0 then 0 else committed * 1_000_000 / end_time);
      messages = !messages;
      max_in_flight = !max_in_flight;
      trace_dropped = Trace.dropped_count (Engine.trace engine);
      by_protocol =
        List.map
          (fun (pr, _) ->
            let assigned = ref 0 and comm = ref 0 in
            Array.iteri
              (fun k o ->
                if protos.(k) = pr then begin
                  incr assigned;
                  if o = Committed then incr comm
                end)
              outcomes;
            (Workload.proto_name pr, !assigned, !comm))
          w.mix;
      blame;
      blame_reports;
      routing =
        Option.map
          (fun g ->
            {
              topology = RT.to_string g;
              strategy = RR.strategy_name w.route;
              max_splits;
              offered_value = w.payments * w.value;
              committed_value = !committed_value;
              paths_selected = !total_paths;
              split_payments = !split_payments;
              partial_payments = !partial_payments;
              no_route_rejections = !no_route_rejections;
              instances = !active;
              instances_committed = !instances_committed;
              instances_settled = !instances_settled;
            })
          graph;
      committee_stats =
        Option.map
          (fun com ->
            (* deterministic: read straight off the sequencer's committee
               state, never the (domain-shared) metrics registry *)
            let certs = ref 0
            and verdicts = ref 0
            and max_batch = ref 0
            and rounds = ref 0
            and lat_sum = ref 0
            and lat_max = ref 0 in
            for slot = 0 to Quorum.Committee.slot_count com - 1 do
              match Quorum.Committee.cert_of_slot com slot with
              | None -> ()
              | Some cert ->
                  let batch = List.length cert.Consensus.Dls.d_value in
                  incr certs;
                  verdicts := !verdicts + batch;
                  if batch > !max_batch then max_batch := batch;
                  rounds := !rounds + cert.Consensus.Dls.d_round + 1;
                  let lat =
                    Option.value
                      (Quorum.Committee.cert_latency com slot)
                      ~default:0
                  in
                  lat_sum := !lat_sum + lat;
                  if lat > !lat_max then lat_max := lat
            done;
            {
              certs = !certs;
              verdicts = !verdicts;
              max_batch = !max_batch;
              rounds = !rounds;
              cert_lat_sum = !lat_sum;
              cert_lat_max = !lat_max;
            })
          !sequencer_com;
      events = Engine.events_processed engine;
      wall_ns = max 1 (Fleet.now_ns () - wall_t0);
    }
  in
  (* --- telemetry --- *)
  let reg = Obsv.Metrics.default in
  List.iter
    (fun (pr, _) ->
      List.iter
        (fun o ->
          let n =
            Array.fold_left ( + ) 0
              (Array.mapi
                 (fun k x -> if protos.(k) = pr && x = o then 1 else 0)
                 outcomes)
          in
          if n > 0 then
            Obsv.Metrics.add
              (Obsv.Metrics.counter reg ~help:"Load-run payment outcomes"
                 ~labels:
                   [
                     ("protocol", Workload.proto_name pr);
                     ("outcome", outcome_name o);
                   ]
                 "xchain_load_payments_total")
              n)
        [ Committed; Aborted; Rejected; Stuck; Violated ])
    w.mix;
  Array.iteri
    (fun k o ->
      if o = Committed then
        Obsv.Metrics.observe
          (Obsv.Metrics.histogram reg
             ~help:"Commit latency (arrival to Bob's payout), ticks"
             ~labels:[ ("protocol", Workload.proto_name protos.(k)) ]
             "xchain_load_commit_latency")
          (pay_latency k))
    outcomes;
  let counter ~help name n =
    Obsv.Metrics.add (Obsv.Metrics.counter reg ~help name) n
  in
  (match graph with
  | None ->
      counter ~help:"In-protocol insufficient-funds deposit failures"
        "xchain_load_liquidity_rejections_total" !liquidity_rejections
  | Some _ -> ());
  Obsv.Metrics.set
    (Obsv.Metrics.gauge reg ~help:"Peak concurrently admitted payments"
       "xchain_load_in_flight_max")
    !max_in_flight;
  (match graph with
  | None -> ()
  | Some _ ->
      if !total_paths > 0 then
        Obsv.Metrics.add
          (Obsv.Metrics.counter reg
             ~help:"Paths selected by the payment router"
             ~labels:[ ("strategy", RR.strategy_name w.route) ]
             "xchain_route_paths_total")
          !total_paths;
      if !split_payments > 0 then
        counter ~help:"Payments split across multiple disjoint paths"
          "xchain_route_split_payments_total" !split_payments;
      if !no_route_rejections > 0 then
        counter ~help:"Payments rejected because no route could carry them"
          "xchain_route_no_route_total" !no_route_rejections;
      if !committed_value > 0 then
        counter ~help:"Value committed end-to-end across all splits"
          "xchain_route_committed_value_total" !committed_value);
  let spans = Obsv.Span.default in
  if Obsv.Span.capture spans then begin
    let root =
      Obsv.Span.start spans ~name:"load"
        ~attrs:
          [
            ("payments", string_of_int w.payments);
            ("seed", string_of_int seed);
          ]
        ~at:0 ()
    in
    Array.iteri
      (fun k o ->
        let p = pays.(k) in
        let s =
          Obsv.Span.start spans ~parent:root ~name:"payment"
            ~attrs:
              [
                ("id", string_of_int k);
                ("protocol", Workload.proto_name p.proto);
              ]
            ~trace_id:(if Option.is_none causal then -1 else k * max_splits)
            ~root_event:roots.(k)
            ~at:(max 0 p.arrived_at) ()
        in
        let settled_at =
          List.fold_left
            (fun acc id -> max acc insts.(id).settled_at)
            (-1) p.splits
        in
        (* a stuck payment's span must never export as open-ended or as
           settling when the engine merely stopped: it is force-closed at
           the horizon the scheduler gave up at *)
        Obsv.Span.finish ~status:(outcome_name o)
          ~at:
            (if o = Stuck then horizon
             else if settled_at >= 0 then settled_at
             else end_time)
          s)
      outcomes;
    Obsv.Span.finish ~status:report.status ~at:end_time root
  end;
  report

(* ------------------------------- output ------------------------------- *)

let to_json r =
  let b = Buffer.create 1024 in
  let str s = Buffer.add_string b ("\"" ^ Obsv.Metrics.json_escape s ^ "\"") in
  Buffer.add_string b "{\"workload\":";
  str (Workload.to_string r.workload);
  Printf.bprintf b ",\"seed\":%d,\"plan\":" r.seed;
  str r.plan;
  Buffer.add_string b ",\"status\":";
  str r.status;
  Printf.bprintf b
    ",\"payments\":%d,\"admitted\":%d,\"committed\":%d,\"aborted\":%d,\"rejected\":%d,\"stuck\":%d,\"violated\":%d"
    r.workload.Workload.payments r.admitted r.committed r.aborted r.rejected
    r.stuck r.violated;
  Printf.bprintf b ",\"liquidity_rejections\":%d,\"conservation_ok\":%b"
    r.liquidity_rejections r.conservation_ok;
  Printf.bprintf b
    ",\"latency\":{\"p50\":%d,\"p95\":%d,\"p99\":%d,\"max\":%d}" r.latency_p50
    r.latency_p95 r.latency_p99 r.latency_max;
  Printf.bprintf b
    ",\"makespan\":%d,\"throughput_cpm\":%d,\"messages\":%d,\"events\":%d,\"max_in_flight\":%d,\"trace_dropped\":%d"
    r.makespan r.throughput_cpm r.messages r.events r.max_in_flight
    r.trace_dropped;
  Buffer.add_string b ",\"by_protocol\":[";
  List.iteri
    (fun i (name, assigned, committed) ->
      if i > 0 then Buffer.add_char b ',';
      Printf.bprintf b "{\"protocol\":\"%s\",\"assigned\":%d,\"committed\":%d}"
        name assigned committed)
    r.by_protocol;
  Buffer.add_string b "],\"violations\":[";
  List.iteri
    (fun i v ->
      if i > 0 then Buffer.add_char b ',';
      Printf.bprintf b "{\"payment\":%d,\"property\":" v.payment;
      str v.property;
      Buffer.add_string b ",\"detail\":";
      str v.detail;
      Buffer.add_char b '}')
    r.violations;
  Buffer.add_char b ']';
  (* only present on causally-traced runs, so untraced reports stay
     byte-identical to earlier releases *)
  Option.iter
    (fun agg ->
      Buffer.add_string b ",\"blame\":";
      Buffer.add_string b (Obsv.Blame.agg_to_json agg))
    r.blame;
  (* only present on graph workloads, so linear reports stay byte-identical
     to earlier releases *)
  Option.iter
    (fun (s : routing_stats) ->
      Buffer.add_string b ",\"routing\":{\"topology\":";
      str s.topology;
      Buffer.add_string b ",\"strategy\":";
      str s.strategy;
      Printf.bprintf b
        ",\"max_splits\":%d,\"offered_value\":%d,\"committed_value\":%d,\"paths_selected\":%d,\"split_payments\":%d,\"partial_payments\":%d,\"no_route_rejections\":%d,\"instances\":%d,\"instances_committed\":%d,\"instances_settled\":%d}"
        s.max_splits s.offered_value s.committed_value s.paths_selected
        s.split_payments s.partial_payments s.no_route_rejections s.instances
        s.instances_committed s.instances_settled)
    r.routing;
  (* only present on shared-committee workloads, so other reports stay
     byte-identical to earlier releases *)
  Option.iter
    (fun (s : committee_stats) ->
      Printf.bprintf b
        ",\"committee\":{\"certs\":%d,\"verdicts\":%d,\"max_batch\":%d,\"rounds\":%d,\"cert_lat_sum\":%d,\"cert_lat_max\":%d}"
        s.certs s.verdicts s.max_batch s.rounds s.cert_lat_sum s.cert_lat_max)
    r.committee_stats;
  (* wall-clock timing is the one nondeterministic member; it comes last
     so byte-identity checks can strip it (scripts/strip_timing.py) *)
  Printf.bprintf b ",\"timing\":{\"wall_ns\":%d,\"events_per_sec\":%d}"
    r.wall_ns
    (int_of_float (float_of_int r.events /. (float_of_int r.wall_ns /. 1e9)));
  Buffer.add_char b '}';
  Buffer.contents b

let pp_summary ppf r =
  Fmt.pf ppf "@[<v>load: %a@," Workload.pp r.workload;
  Fmt.pf ppf "seed %d, plan %s, engine %s@," r.seed r.plan r.status;
  Fmt.pf ppf
    "payments %d: committed %d, aborted %d, rejected %d, stuck %d, violated \
     %d@,"
    r.workload.Workload.payments r.committed r.aborted r.rejected r.stuck
    r.violated;
  Fmt.pf ppf "liquidity rejections %d, conservation %s@," r.liquidity_rejections
    (if r.conservation_ok then "ok" else "BROKEN");
  Fmt.pf ppf "latency ticks p50 %d, p95 %d, p99 %d, max %d@," r.latency_p50
    r.latency_p95 r.latency_p99 r.latency_max;
  Fmt.pf ppf "makespan %d ticks, throughput %d commits/Mtick, peak in-flight %d@,"
    r.makespan r.throughput_cpm r.max_in_flight;
  Option.iter
    (fun (s : routing_stats) ->
      Fmt.pf ppf "routing %s over %s: %d paths, %d split, %d partial@,"
        s.strategy s.topology s.paths_selected s.split_payments
        s.partial_payments;
      Fmt.pf ppf
        "  value %d/%d committed, %d/%d instances paid, %d no-route@,"
        s.committed_value s.offered_value s.instances_committed s.instances
        s.no_route_rejections)
    r.routing;
  Option.iter
    (fun (s : committee_stats) ->
      Fmt.pf ppf
        "committee: %d certs, %d verdicts, max batch %d, %d rounds, cert \
         latency mean %d max %d@,"
        s.certs s.verdicts s.max_batch s.rounds
        (if s.certs = 0 then 0 else s.cert_lat_sum / s.certs)
        s.cert_lat_max)
    r.committee_stats;
  List.iter
    (fun (name, assigned, committed) ->
      Fmt.pf ppf "  %-10s %d assigned, %d committed@," name assigned committed)
    r.by_protocol;
  List.iter
    (fun v ->
      Fmt.pf ppf "  VIOLATION pay=%d %s: %s@," v.payment v.property v.detail)
    r.violations;
  Fmt.pf ppf "@]"
