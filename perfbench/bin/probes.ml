(* Kernel probes: one public function of a layer, called in a loop on
   input shaped like the workload's, from outside the layer. Each reports
   host ns per call (median of the rounds) and minor words per call (the
   last round's; the same every round). *)

open Perfbench_core

type shape = {
  hops : int;
  mac_bytes : int;  (** hash input: a MAC input over the workload's bodies *)
  certs : bool;  (** the workload signs committee batch certificates *)
  depth : int;  (** peak event-queue depth the traced run saw *)
  journal : int;  (** deposit/release cycles a book carries in the workload *)
  routed : (Routing.Topology.t * Routing.Router.strategy * int) option;
  plan : Faults.Fault_plan.t option;  (** a fault plan of the workload *)
  protocols : string list;  (** payment protocols of the workload's mix *)
}

let rounds = 5

let measure ?(prepare = ignore) ~ops f =
  prepare ();
  f 0;
  let words = ref 0 in
  let times =
    List.init rounds (fun _ ->
        prepare ();
        let w0 = Pclock.minor_words () and t0 = Pclock.now_ns () in
        for i = 1 to ops do
          f i
        done;
        let t1 = Pclock.now_ns () and w1 = Pclock.minor_words () in
        words := w1 - w0;
        float_of_int (t1 - t0) /. float_of_int ops)
  in
  (Stats.median times, float_of_int !words /. float_of_int ops)

let protocol = function
  | "sync" -> Protocols.Runner.Sync_timebound
  | "weak" -> Protocols.Runner.Weak Protocols.Weak_protocol.default_config
  | "htlc" -> Protocols.Runner.Htlc
  | "atomic" -> Protocols.Runner.Atomic Protocols.Atomic_protocol.default_config
  | "committee" ->
      Protocols.Runner.Weak
        {
          Protocols.Weak_protocol.default_config with
          tm = Protocols.Weak_protocol.Committee { f = 1 };
        }
  | p -> invalid_arg ("no standalone payment probe for " ^ p)

let ok what = function Ok _ -> () | Error _ -> failwith (what ^ " failed in a probe")

(* Every probe of [shape] as (metric, value) pairs, each recorded as a
   child span of [parent]. *)
let run spans ~parent shape =
  let results = ref [] in
  (* [per] divides both figures (per byte); [us] reports time in µs *)
  let probe name ?prepare ~ops ?(per = 1.) ?(us = false) ?(attrs = []) ~time ?words f =
    Spans.within spans ~parent ~name (fun id ->
        let ns, w = measure ?prepare ~ops f in
        let t = (if us then ns /. 1e3 else ns) /. per in
        results := (time, t) :: !results;
        Option.iter (fun words -> results := (words, w /. per) :: !results) words;
        Spans.set_attrs spans id
          Json.(
            [
              ("ops_per_round", num (float_of_int ops));
              ("ns_per_op", num ns);
              ("words_per_op", num w);
            ]
            @ attrs))
  in
  let open Xcrypto in
  let mac_input = String.init shape.mac_bytes (fun i -> Char.chr (33 + (i mod 90))) in
  probe "xcrypto.hash" ~ops:20_000 ~per:(float_of_int shape.mac_bytes)
    ~attrs:[ ("bytes", Json.num (float_of_int shape.mac_bytes)) ]
    ~time:"xcrypto.hash.ns_per_byte" ~words:"xcrypto.hash.words_per_byte" (fun _ ->
      ignore (Sys.opaque_identity (Hash.of_string mac_input)));
  let registry = Auth.create ~seed:1 in
  let signer = Auth.register registry 7 in
  let sign_verify ~label ~time_sign ~words_sign ~time_verify ~words_verify body =
    let attrs = [ ("bytes", Json.num (float_of_int (String.length body))) ] in
    probe ("xcrypto.auth.sign" ^ label) ~ops:20_000 ~attrs ~time:time_sign ~words:words_sign
      (fun _ -> ignore (Sys.opaque_identity (Auth.sign signer body)));
    let signature = Auth.sign signer body in
    probe ("xcrypto.auth.verify" ^ label) ~ops:20_000 ~attrs ~time:time_verify
      ~words:words_verify (fun _ ->
        if not (Auth.verify registry 7 body signature) then failwith "verify rejected")
  in
  sign_verify ~label:"" ~time_sign:"xcrypto.auth.sign_ns" ~words_sign:"xcrypto.auth.sign_words"
    ~time_verify:"xcrypto.auth.verify_ns" ~words_verify:"xcrypto.auth.verify_words"
    (Protocols.Msg.ser_promise_g { g_escrow = 2; g_customer = 1; d = 2_345 });
  if shape.certs then begin
    let batch = List.init 32 (fun i -> { Quorum.Committee.item = i; commit = i mod 5 <> 0 }) in
    probe "quorum.committee.ser_batch" ~ops:20_000 ~time:"quorum.committee.ser_batch_ns"
      ~words:"quorum.committee.ser_batch_words" (fun _ ->
        ignore (Sys.opaque_identity (Quorum.Committee.ser_batch batch)));
    sign_verify ~label:"_cert" ~time_sign:"xcrypto.auth.sign_cert_ns"
      ~words_sign:"xcrypto.auth.sign_cert_words" ~time_verify:"xcrypto.auth.verify_cert_ns"
      ~words_verify:"xcrypto.auth.verify_cert_words" (Quorum.Committee.ser_batch batch)
  end;
  (* the event queue at the traced run's peak depth: a hold model (pop the
     earliest, push it back later) and cancels of pending events *)
  let open Sim in
  let delays = Array.init 4096 (fun i -> 1 + (i * 7919 mod 997)) in
  let depth = max 1 shape.depth in
  let queue = Event_queue.create () in
  for i = 0 to depth - 1 do
    ignore (Event_queue.push queue ~time:delays.(i land 4095) ())
  done;
  let depth_attr = [ ("depth", Json.num (float_of_int depth)) ] in
  probe "sim.event_queue.push_pop" ~ops:100_000 ~attrs:depth_attr
    ~time:"sim.event_queue.push_pop_ns" ~words:"sim.event_queue.push_pop_words" (fun i ->
      match Event_queue.pop queue with
      | Some (t, ()) -> ignore (Event_queue.push queue ~time:(t + delays.(i land 4095)) ())
      | None -> failwith "event queue drained");
  let cancel_ops = 20_000 in
  let victims = Array.make (cancel_ops + 1) 0 in
  probe "sim.event_queue.cancel" ~ops:cancel_ops ~attrs:depth_attr
    ~prepare:(fun () ->
      Array.iteri
        (fun i _ -> victims.(i) <- Event_queue.push queue ~time:(Sim_time.infinity - 1) ())
        victims)
    ~time:"sim.event_queue.cancel_ns" ~words:"sim.event_queue.cancel_words" (fun i ->
      if not (Event_queue.cancel queue victims.(i)) then failwith "cancel refused");
  let network =
    Network.create ~link_stats:false ~metrics:(Obsv.Metrics.create ())
      (Network.Synchronous { delta = 100 }) (Rng.create ~seed:1)
  in
  probe "sim.network.fate" ~ops:100_000 ~time:"sim.network.fate_ns"
    ~words:"sim.network.fate_words" (fun i ->
      ignore (Sys.opaque_identity (Network.fate network ~send_time:i ~src:1 ~dst:2 ~tag:"money")));
  Option.iter
    (fun plan ->
      let tamper =
        Faults.Injector.tamper
          (Faults.Injector.create ~metrics:(Obsv.Metrics.create ()) ~plan ~seed:1 ())
      in
      let n = (2 * shape.hops) + 1 in
      probe "faults.injector.tamper" ~ops:100_000
        ~attrs:[ ("plan", Json.str (Faults.Fault_plan.to_string plan)) ]
        ~time:"faults.injector.tamper_ns" ~words:"faults.injector.tamper_words" (fun i ->
          ignore
            (Sys.opaque_identity
               (tamper ~send_time:(i land 4095) ~src:(i mod n) ~dst:((i + 1) mod n) ~tag:"money"))))
    shape.plan;
  let book () =
    let b = Ledger.Book.create ~currency:"bench" in
    Ledger.Book.open_account b ~owner:1 ~balance:(max_int / 4);
    Ledger.Book.open_account b ~owner:2 ~balance:0;
    b
  in
  let cycle b =
    match Ledger.Book.deposit b ~from_:1 ~amount:10 with
    | Ok id -> ok "release" (Ledger.Book.release b id ~to_:2)
    | Error _ -> failwith "deposit failed in a probe"
  in
  let cycling = book () in
  probe "ledger.book.cycle" ~ops:100_000 ~time:"ledger.book.cycle_ns"
    ~words:"ledger.book.cycle_words" (fun _ -> cycle cycling);
  let audited = book () in
  for _ = 1 to shape.journal do
    cycle audited
  done;
  probe "ledger.book.audit" ~ops:200
    ~attrs:[ ("journal", Json.num (float_of_int (Ledger.Book.journal_length audited))) ]
    ~us:true ~time:"ledger.book.audit_us" (fun _ ->
      ok "audit" (Ledger.Book.audit audited));
  Option.iter
    (fun (topology, strategy, max_splits) ->
      let capacity i = Routing.Topology.capacity topology.Routing.Topology.edges.(i) in
      let route ~suffix ~avail =
        let router = Routing.Router.create ~strategy topology in
        probe ("routing.router.route" ^ suffix) ~ops:2_000 ~us:true
          ~time:("routing.router.route" ^ suffix ^ "_us")
          ~words:("routing.router.route" ^ suffix ^ "_words") (fun _ ->
            ok "route" (Routing.Router.route router ~avail ~value:1000 ~max_splits))
      in
      route ~suffix:"" ~avail:capacity;
      route ~suffix:"_half" ~avail:(fun i -> capacity i / 2))
    shape.routed;
  List.iter
    (fun p ->
      let proto = protocol p in
      probe ("protocols." ^ p ^ ".payment") ~ops:40 ~us:true
        ~time:("protocols." ^ p ^ ".payment_us") ~words:("protocols." ^ p ^ ".payment_words")
        (fun i ->
          let o = Protocols.Runner.run (Protocols.Runner.default_config ~hops:shape.hops ~seed:(i + 1)) proto in
          ignore (Sys.opaque_identity o)))
    shape.protocols;
  List.rev !results
