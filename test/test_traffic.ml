(* Tests for the traffic subsystem: workload grammar, validation, and the
   load scheduler's end-to-end guarantees (safety subset, contention
   accounting, fault classification, determinism). *)

open Traffic

let qcheck = QCheck_alcotest.to_alcotest

(* ----------------------------- workload ------------------------------- *)

let wl_gen =
  QCheck.Gen.(
    let arrival =
      oneof
        [
          map (fun g -> Workload.Poisson { gap = 1 + g }) (int_bound 200);
          map2
            (fun c t -> Workload.Closed { clients = 1 + c; think = t })
            (int_bound 20) (int_bound 100);
          map2
            (fun s e -> Workload.Burst { size = 1 + s; every = 1 + e })
            (int_bound 10) (int_bound 200);
          map2
            (fun hi lo ->
              Workload.Ramp { gap_hi = 1 + lo + hi; gap_lo = 1 + lo })
            (int_bound 100) (int_bound 100);
        ]
    in
    let proto =
      oneofl
        Workload.[ Sync; Naive; Htlc; Weak_single; Committee; Atomic ]
    in
    let mix =
      map
        (fun l ->
          (* dedup by protocol; grammar keys mixes by name *)
          List.fold_left
            (fun acc (p, w) ->
              if List.mem_assoc p acc then acc else (p, w) :: acc)
            [] l
          |> List.rev)
        (list_size (int_range 1 4) (pair proto (int_range 1 9)))
    in
    let policy = oneofl Workload.[ Reserve; Optimistic ] in
    let* payments = int_bound 500 in
    let* hops = int_bound 3 in
    let* value = int_bound 1000 in
    let* commission = int_bound 20 in
    let* arrival = arrival in
    let* mix = mix in
    let* policy = policy in
    (* of_string validates: optimistic is illegal with sync/naive in the mix *)
    let policy =
      if
        List.mem_assoc Workload.Sync mix
        || List.mem_assoc Workload.Naive mix
      then Workload.Reserve
      else policy
    in
    let* cap = int_bound 64 in
    let* liq = int_bound 8 in
    let+ pat = int_bound 5000 in
    {
      Workload.payments = 1 + payments;
      hops = 1 + hops;
      value = 100 + value;
      commission = 1 + commission;
      arrival;
      mix;
      policy;
      cap;
      liquidity = liq;
      patience = 1 + pat;
      stuck_after = 0;
      drift_ppm = 0;
      gst = None;
      topology = None;
      route = Routing.Router.Shortest;
      splits = 1;
      committee = None;
    })

let wl_arb =
  QCheck.make ~print:(fun w -> Workload.to_string w) wl_gen

let workload_tests =
  [
    qcheck
      (QCheck.Test.make ~name:"grammar round-trips" ~count:500 wl_arb
         (fun w ->
           match Workload.of_string (Workload.to_string w) with
           | Ok w' -> w' = w
           | Error e -> QCheck.Test.fail_reportf "no parse: %s" e));
    Alcotest.test_case "default spec round-trips" `Quick (fun () ->
        let w = Workload.default ~payments:100 in
        match Workload.of_string (Workload.to_string w) with
        | Ok w' -> Alcotest.(check bool) "equal" true (w = w')
        | Error e -> Alcotest.fail e);
    Alcotest.test_case "parse errors name the offending key" `Quick
      (fun () ->
        let base = Workload.to_string (Workload.default ~payments:10) in
        let broken key bad =
          (* swap one key's value for garbage inside an otherwise-valid
             spec; the error must say which key refused it *)
          String.split_on_char ' ' base
          |> List.map (fun kv ->
                 match String.index_opt kv '=' with
                 | Some i when String.sub kv 0 i = key -> key ^ "=" ^ bad
                 | _ -> kv)
          |> String.concat " "
        in
        List.iter
          (fun (key, bad) ->
            match Workload.of_string (broken key bad) with
            | Ok _ -> Alcotest.failf "%s=%s should not parse" key bad
            | Error e ->
                Alcotest.(check bool)
                  (Printf.sprintf "%S names %s" e key)
                  true
                  (String.length e >= String.length key
                  && String.sub e 0 (String.length key) = key))
          [
            ("arrival", "fibonacci:3");
            ("mix", "sync:0");
            ("policy", "yolo");
            ("payments", "many");
          ];
        match
          Workload.of_string (base ^ " topology=graph:9;nonsense route=warp")
        with
        | Ok _ -> Alcotest.fail "bad topology accepted"
        | Error e ->
            Alcotest.(check bool) "topology error is keyed" true
              (String.length e >= 8 && String.sub e 0 8 = "topology"));
    Alcotest.test_case "optimistic forbids sync and naive" `Quick (fun () ->
        let w =
          {
            (Workload.default ~payments:10) with
            policy = Workload.Optimistic;
            mix = [ (Workload.Sync, 1) ];
          }
        in
        (match Workload.validate w with
        | Error _ -> ()
        | Ok () -> Alcotest.fail "optimistic+sync accepted");
        let w = { w with mix = [ (Workload.Naive, 1) ] } in
        match Workload.validate w with
        | Error _ -> ()
        | Ok () -> Alcotest.fail "optimistic+naive accepted");
    Alcotest.test_case "naive requires zero drift" `Quick (fun () ->
        let w =
          {
            (Workload.default ~payments:10) with
            mix = [ (Workload.Naive, 1) ];
            drift_ppm = 500;
          }
        in
        (match Workload.validate w with
        | Error _ -> ()
        | Ok () -> Alcotest.fail "naive with drift accepted");
        match Workload.validate { w with drift_ppm = 0 } with
        | Ok () -> ()
        | Error e -> Alcotest.fail e);
    Alcotest.test_case "arrivals are monotone and deterministic" `Quick
      (fun () ->
        let w =
          {
            (Workload.default ~payments:200) with
            arrival = Workload.Ramp { gap_hi = 80; gap_lo = 5 };
          }
        in
        match (Workload.arrivals w ~seed:7, Workload.arrivals w ~seed:7) with
        | Some a, Some b ->
            Alcotest.(check bool) "same seed, same ticks" true (a = b);
            Array.iteri
              (fun i t ->
                if i > 0 && t < a.(i - 1) then
                  Alcotest.fail "arrival ticks not monotone")
              a
        | _ -> Alcotest.fail "open-loop arrivals expected");
    Alcotest.test_case "closed loop has no precomputed arrivals" `Quick
      (fun () ->
        let w =
          {
            (Workload.default ~payments:50) with
            arrival = Workload.Closed { clients = 4; think = 10 };
          }
        in
        match Workload.arrivals w ~seed:1 with
        | None -> ()
        | Some _ -> Alcotest.fail "closed loop should settle-drive arrivals");
    qcheck
      (QCheck.Test.make ~name:"assign_mix draws only from the mix" ~count:100
         wl_arb (fun w ->
           let assigned = Workload.assign_mix w ~seed:13 in
           Array.length assigned = w.Workload.payments
           && Array.for_all
                (fun p -> List.mem_assoc p w.Workload.mix)
                assigned));
  ]

(* ------------------------------- load ---------------------------------- *)

let spec s =
  match Workload.of_string s with
  | Ok w -> w
  | Error e -> Alcotest.fail ("bad spec: " ^ e)

let contains hay needle =
  let lh = String.length hay and ln = String.length needle in
  let rec go i =
    i + ln <= lh && (String.sub hay i ln = needle || go (i + 1))
  in
  go 0

let no_violations r =
  Alcotest.(check int) "violated" 0 r.Load.violated;
  Alcotest.(check (list string)) "violations" []
    (List.map
       (fun v -> Printf.sprintf "%d/%s: %s" v.Load.payment v.property v.detail)
       r.Load.violations);
  Alcotest.(check bool) "conservation" true r.Load.conservation_ok

(* A monitored, sampled run must report exactly what the bare run does,
   end with a clean monitor that agrees with the post-hoc audit, and sample
   the three scheduler columns plus one per shared book, never negative. *)
let check_monitored ~workload ~seed ~book_columns =
  let norm r = Load.to_json { r with Load.wall_ns = 1 } in
  let bare = Load.run ~workload ~seed () in
  let m = Obsv.Monitor.create () in
  let s = Obsv.Sampler.create () in
  let r = Load.run ~monitor:m ~sampler:s ~workload ~seed () in
  Alcotest.(check string) "monitoring changes no report" (norm bare) (norm r);
  Alcotest.(check bool) "monitor stepped" true (Obsv.Monitor.steps m > 0);
  Alcotest.(check (list string)) "monitor ends clean" []
    (List.map
       (fun (t : Obsv.Monitor.trip) -> t.property ^ ": " ^ t.detail)
       (Obsv.Monitor.violations m));
  Alcotest.(check bool) "monitor agrees with the audit" r.Load.conservation_ok
    (Obsv.Monitor.violations m = []);
  Alcotest.(check (list string)) "sampler columns"
    ([ "queue_depth"; "in_flight"; "admitted" ] @ book_columns)
    (Obsv.Sampler.columns s);
  Alcotest.(check bool) "sampled" true (Obsv.Sampler.row_count s > 0);
  List.iter
    (fun (t, row) ->
      Array.iteri
        (fun i v ->
          if i >= 3 && v < 0 then
            Alcotest.failf "%s negative (%d) at t=%d"
              (List.nth book_columns (i - 3)) v t)
        row)
    (Obsv.Sampler.rows s)

let load_tests =
  [
    Alcotest.test_case "mixed open-loop run commits everything" `Slow
      (fun () ->
        let w =
          spec
            "payments=40 hops=2 value=1000 commission=10 arrival=poisson:30 \
             mix=sync:2,weak:2,htlc:1,atomic:1 policy=reserve cap=0 \
             liquidity=0 patience=2000 stuck=0 drift=10000 gst=none"
        in
        let r = Load.run ~workload:w ~seed:3 () in
        no_violations r;
        Alcotest.(check int) "committed" 40 r.Load.committed;
        Alcotest.(check int) "rejected" 0 r.Load.rejected;
        Alcotest.(check bool) "latency measured" true (r.Load.latency_p50 > 0);
        Alcotest.(check bool) "throughput measured" true
          (r.Load.throughput_cpm > 0);
        let assigned = List.fold_left (fun a (_, n, _) -> a + n) 0 r.Load.by_protocol in
        Alcotest.(check int) "by_protocol covers all payments" 40 assigned);
    Alcotest.test_case "committee payments multiplex too" `Slow (fun () ->
        let w =
          spec
            "payments=12 hops=2 value=1000 commission=10 arrival=burst:4:200 \
             mix=committee policy=reserve cap=0 liquidity=0 patience=3000 \
             stuck=0 drift=10000 gst=none"
        in
        let r = Load.run ~workload:w ~seed:5 () in
        no_violations r;
        Alcotest.(check int) "committed" 12 r.Load.committed);
    Alcotest.test_case "closed loop under scarce liquidity rejects, never \
                        violates" `Slow (fun () ->
        let w =
          spec
            "payments=60 hops=2 value=1000 commission=10 arrival=closed:6:5 \
             mix=weak policy=reserve cap=0 liquidity=3 patience=400 stuck=0 \
             drift=10000 gst=none"
        in
        let r = Load.run ~workload:w ~seed:11 () in
        no_violations r;
        Alcotest.(check bool) "liquidity bites: some payments rejected" true
          (r.Load.rejected > 0);
        Alcotest.(check bool) "the funded prefix still commits" true
          (r.Load.committed >= 3);
        Alcotest.(check int) "everything is accounted for"
          w.Workload.payments
          (r.Load.committed + r.Load.aborted + r.Load.rejected + r.Load.stuck
         + r.Load.violated));
    Alcotest.test_case "optimistic policy surfaces deposit races safely"
      `Slow (fun () ->
        let w =
          spec
            "payments=30 hops=2 value=1000 commission=10 arrival=burst:30:1 \
             mix=weak policy=optimistic cap=0 liquidity=5 patience=200 \
             stuck=0 drift=10000 gst=none"
        in
        let r = Load.run ~workload:w ~seed:2 () in
        no_violations r;
        Alcotest.(check bool) "losers hit Insufficient_funds in-protocol" true
          (r.Load.liquidity_rejections > 0));
    Alcotest.test_case "a crashed escrow leaves its payments stuck, never \
                        unsafe" `Slow (fun () ->
        (* host pid 4 is e1's contract process in a 2-hop block; crashing it
           mid-run wedges unsettled payments without violating safety *)
        let w =
          spec
            "payments=20 hops=2 value=1000 commission=10 arrival=poisson:50 \
             mix=weak policy=reserve cap=0 liquidity=0 patience=2000 \
             stuck=0 drift=10000 gst=none"
        in
        let plan =
          match Faults.Fault_plan.of_string "crash 4@1500" with
          | Ok p -> p
          | Error e -> Alcotest.fail e
        in
        let r = Load.run ~plan ~workload:w ~seed:9 () in
        no_violations r;
        Alcotest.(check bool) "some payments wedge" true (r.Load.stuck > 0);
        Alcotest.(check bool) "pre-crash payments commit" true
          (r.Load.committed > 0));
    Alcotest.test_case "a healed crash only delays" `Slow (fun () ->
        let w =
          spec
            "payments=15 hops=2 value=1000 commission=10 arrival=poisson:40 \
             mix=weak policy=reserve cap=0 liquidity=0 patience=2000 \
             stuck=0 drift=10000 gst=none"
        in
        let plan =
          match Faults.Fault_plan.of_string "crash 3@1000+2000" with
          | Ok p -> p
          | Error e -> Alcotest.fail e
        in
        let r = Load.run ~plan ~workload:w ~seed:9 () in
        no_violations r;
        Alcotest.(check int) "all commit after the heal" 15 r.Load.committed);
    Alcotest.test_case "reports are bit-identical across reruns" `Slow
      (fun () ->
        let w =
          spec
            "payments=25 hops=3 value=900 commission=15 arrival=ramp:60:10 \
             mix=sync:1,htlc:1,atomic:1 policy=reserve cap=8 liquidity=0 \
             patience=2500 stuck=0 drift=10000 gst=none"
        in
        (* Pin the one nondeterministic field (host wall time) so the
           whole report, timing block included, must match byte-for-byte. *)
        let norm r = Load.to_json { r with Load.wall_ns = 1_000_000_000 } in
        let a = norm (Load.run ~workload:w ~seed:21 ()) in
        let b = norm (Load.run ~workload:w ~seed:21 ()) in
        Alcotest.(check string) "same seed, same bytes" a b;
        let c = norm (Load.run ~workload:w ~seed:22 ()) in
        Alcotest.(check bool) "different seed, different run" true (a <> c));
    Alcotest.test_case "bounded trace never skews accounting" `Slow (fun () ->
        let w =
          spec
            "payments=30 hops=2 value=1000 commission=10 arrival=poisson:20 \
             mix=sync,weak policy=reserve cap=0 liquidity=0 patience=2000 \
             stuck=0 drift=10000 gst=none"
        in
        let tiny = Load.run ~trace_capacity:64 ~workload:w ~seed:4 () in
        let full = Load.run ~trace_capacity:0 ~workload:w ~seed:4 () in
        Alcotest.(check bool) "tiny ring evicted entries" true
          (tiny.Load.trace_dropped > 0);
        Alcotest.(check int) "unbounded run drops nothing" 0
          full.Load.trace_dropped;
        Alcotest.(check string) "identical reports modulo trace_dropped"
          (Load.to_json { tiny with Load.trace_dropped = 0; Load.wall_ns = 1 })
          (Load.to_json { full with Load.trace_dropped = 0; Load.wall_ns = 1 }));
    Alcotest.test_case "run rejects an invalid workload" `Quick (fun () ->
        let optimistic_sync =
          {
            (Workload.default ~payments:5) with
            policy = Workload.Optimistic;
            mix = [ (Workload.Sync, 1) ];
          }
        in
        (* of_string validates, so bad committees are spliced in by hand *)
        let shared c =
          match Workload.committee_of_string c with
          | Ok c ->
              {
                (Workload.default ~payments:5) with
                mix = [ (Workload.Shared, 1) ];
                committee = Some c;
              }
          | Error e -> Alcotest.fail e
        in
        List.iter
          (fun (w, why) ->
            (match Workload.validate w with
            | Error e ->
                Alcotest.(check bool) ("validate names " ^ why) true
                  (contains e why)
            | Ok () -> Alcotest.failf "validate accepted a bad %s" why);
            match Load.run ~workload:w ~seed:1 () with
            | exception Invalid_argument _ -> ()
            | _ -> Alcotest.fail "invalid workload accepted")
          [
            (optimistic_sync, "optimistic");
            (shared "grid:5:1:4:1", "perfect square");
            (shared "grid:9:2:8:2:1", "no quorum survives");
          ]);
    Alcotest.test_case "monitor and sampler observe without perturbing" `Slow
      (fun () ->
        let w =
          spec
            "payments=30 hops=3 value=1000 commission=10 arrival=poisson:15 \
             mix=sync:1,weak:1,atomic:1 policy=reserve cap=0 liquidity=3 \
             patience=2000 stuck=0 drift=10000 gst=none"
        in
        check_monitored ~workload:w ~seed:6
          ~book_columns:[ "escrow0_pool"; "escrow1_pool"; "escrow2_pool" ]);
  ]

(* --------------------------- causal tracing ---------------------------- *)

module Causal = Obsv.Causal
module Blame = Obsv.Blame

let causal_spec =
  "payments=15 hops=2 value=1000 commission=10 arrival=poisson:40 mix=sync \
   policy=reserve cap=0 liquidity=0 patience=2000 stuck=0 drift=10000 \
   gst=none"

(* structural well-formedness of a recorded load graph: what the engine
   promises regardless of faults *)
let check_graph c =
  for id = 0 to Causal.node_count c - 1 do
    let preds = Causal.preds c id in
    List.iter
      (fun (_, src) ->
        if src < 0 || src >= id then
          Alcotest.failf "node %d has dangling pred %d" id src;
        if Causal.time_of c src > Causal.time_of c id then
          Alcotest.failf "edge %d->%d goes back in time" src id)
      preds;
    (* every deliver descends from exactly one send: down-drops and stale
       firings record no node, so no deliver can be orphaned or doubled *)
    match Causal.kind_of c id with
    | Causal.Deliver ->
        let msgs =
          List.filter (fun (k, _) -> k = Causal.Message) preds
        in
        (match msgs with
        | [ (_, src) ] ->
            if Causal.kind_of c src <> Causal.Send then
              Alcotest.failf "deliver %d descends from a non-send" id
        | _ ->
            Alcotest.failf "deliver %d has %d message preds" id
              (List.length msgs))
    | Causal.Timer_fire ->
        (match List.filter (fun (k, _) -> k = Causal.Timer) preds with
        | [ (_, src) ] ->
            if Causal.kind_of c src <> Causal.Timer_set then
              Alcotest.failf "fire %d descends from a non-arm" id
        | _ -> Alcotest.failf "fire %d lacks a timer pred" id)
    | _ -> ()
  done

let causal_tests =
  [
    Alcotest.test_case "blame totals are the commit latencies" `Slow (fun () ->
        let w = spec causal_spec in
        let c = Causal.create () in
        let r = Load.run ~causal:c ~workload:w ~seed:6 () in
        no_violations r;
        Alcotest.(check int) "every committed payment has a report"
          r.Load.committed
          (List.length r.Load.blame_reports);
        List.iter
          (fun (k, b) ->
            Alcotest.(check int) "report tagged with its payment" k
              b.Blame.trace;
            Alcotest.(check bool) "gaps sum exactly to the latency" true
              (Blame.check b);
            Alcotest.(check bool) "critical path is a real DAG path" true
              (Causal.path_valid c b.Blame.path);
            Alcotest.(check bool) "rooted at the arrival" true b.Blame.rooted)
          r.Load.blame_reports;
        let slowest =
          List.fold_left (fun m (_, b) -> max m b.Blame.total) 0
            r.Load.blame_reports
        in
        Alcotest.(check int) "slowest critical path = latency_max"
          r.Load.latency_max slowest;
        match r.Load.blame with
        | None -> Alcotest.fail "aggregate missing on a traced run"
        | Some a ->
            Alcotest.(check int) "aggregate covers every commit"
              r.Load.committed a.Blame.payments);
    Alcotest.test_case "tracing adds nodes, never events" `Slow (fun () ->
        let w = spec causal_spec in
        let plain = Load.run ~workload:w ~seed:6 () in
        let traced =
          Load.run ~causal:(Causal.create ()) ~workload:w ~seed:6 ()
        in
        Alcotest.(check string) "identical reports modulo blame"
          (Load.to_json { plain with Load.wall_ns = 1 })
          (Load.to_json { traced with Load.blame = None; Load.wall_ns = 1 }));
    Alcotest.test_case "chrome export is byte-identical across reruns" `Slow
      (fun () ->
        let w = spec causal_spec in
        let once () =
          let c = Causal.create () in
          ignore (Load.run ~causal:c ~workload:w ~seed:13 ());
          (Causal.to_chrome c, Causal.to_jsonl c)
        in
        let a_chrome, a_dag = once () and b_chrome, b_dag = once () in
        Alcotest.(check string) "chrome bytes" a_chrome b_chrome;
        Alcotest.(check string) "dag bytes" a_dag b_dag);
    qcheck
      (QCheck.Test.make ~name:"graphs stay well-formed under random faults"
         ~count:12
         QCheck.(int_bound 999)
         (fun seed ->
           let w = spec causal_spec in
           (* same derivation as the chaos soak: plan from the seed alone,
              addressed at the block's host pids (stride 5 at 2 hops) *)
           let prng = Sim.Rng.create ~seed:(seed + 7919) in
           let plan = Faults.Fault_plan.random prng ~nprocs:5 ~horizon:4000 in
           let c = Causal.create () in
           let r = Load.run ~causal:c ~plan ~workload:w ~seed () in
           check_graph c;
           List.iter
             (fun (_, b) ->
               if not (Blame.check b) then
                 QCheck.Test.fail_reportf "inexact blame under %s"
                   (Faults.Fault_plan.to_string plan);
               if not (Causal.path_valid c b.Blame.path) then
                 QCheck.Test.fail_reportf "broken path under %s"
                   (Faults.Fault_plan.to_string plan))
             r.Load.blame_reports;
           true));
    Alcotest.test_case "stuck payments export stuck spans, never running"
      `Slow (fun () ->
        let w =
          spec
            "payments=20 hops=2 value=1000 commission=10 arrival=poisson:50 \
             mix=weak policy=reserve cap=0 liquidity=0 patience=2000 stuck=0 \
             drift=10000 gst=none"
        in
        let plan =
          match Faults.Fault_plan.of_string "crash 4@1500" with
          | Ok p -> p
          | Error e -> Alcotest.fail e
        in
        let spans = Obsv.Span.default in
        Obsv.Span.clear spans;
        Obsv.Span.set_capture spans true;
        let r = Load.run ~plan ~workload:w ~seed:9 () in
        Obsv.Span.set_capture spans false;
        Alcotest.(check bool) "scenario wedges payments" true (r.Load.stuck > 0);
        let payment_spans =
          List.filter
            (fun s -> Obsv.Span.span_name s = "payment")
            (Obsv.Span.spans spans)
        in
        Alcotest.(check int) "a span per payment" w.Workload.payments
          (List.length payment_spans);
        let stuck_spans =
          List.filter
            (fun s -> Obsv.Span.span_status s = "stuck")
            payment_spans
        in
        Alcotest.(check int) "stuck spans match the count" r.Load.stuck
          (List.length stuck_spans);
        List.iter
          (fun s ->
            if Obsv.Span.span_status s = "running" then
              Alcotest.failf "span %d exported running" (Obsv.Span.span_id s);
            match Obsv.Span.span_end s with
            | Some e when e >= Obsv.Span.span_start s -> ()
            | _ -> Alcotest.failf "span %d open-ended" (Obsv.Span.span_id s))
          payment_spans;
        Obsv.Span.clear spans);
  ]

let () =
  Alcotest.run "traffic"
    [
      ("workload", workload_tests);
      ("load", load_tests);
      ("causal", causal_tests);
    ]
