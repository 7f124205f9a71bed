(* Tests for the routing subsystem: topology grammar, path selection under
   liquidity, payment splitting, rebalancing, and the routed load path's
   end-to-end guarantees (conservation, determinism, multi-path gain). *)

open Routing

let qcheck = QCheck_alcotest.to_alcotest

let topo_of s =
  match Topology.of_string s with Ok t -> t | Error e -> Alcotest.fail e

let plan_of s =
  match Faults.Fault_plan.of_string s with
  | Ok p -> p
  | Error e -> Alcotest.fail e

let full_avail topo e = Topology.capacity topo.Topology.edges.(e)

(* ------------------------------ topology ------------------------------- *)

let random_topo seed = Topology.random (Sim.Rng.create ~seed)

let topo_arb =
  QCheck.make
    ~print:(fun seed -> Topology.to_string (random_topo seed))
    QCheck.Gen.(int_bound 10_000)

let topology_tests =
  [
    qcheck
      (QCheck.Test.make ~name:"grammar round-trips up to normalization"
         ~count:500 topo_arb (fun seed ->
           let t = random_topo seed in
           match Topology.of_string (Topology.to_string t) with
           | Ok t' ->
               Topology.to_string t' = Topology.to_string (Topology.normalize t)
           | Error e ->
               QCheck.Test.fail_reportf "%s failed to re-parse: %s"
                 (Topology.to_string t) e));
    qcheck
      (QCheck.Test.make ~name:"random topologies validate" ~count:500 topo_arb
         (fun seed ->
           match Topology.validate (random_topo seed) with
           | Ok () -> true
           | Error e ->
               QCheck.Test.fail_reportf "%s invalid: %s"
                 (Topology.to_string (random_topo seed))
                 e));
    Alcotest.test_case "sugar families expand to canonical graphs" `Quick
      (fun () ->
        let canon s = Topology.to_string (topo_of s) in
        Alcotest.(check string)
          "linear:2" "graph:3;0>1:0:10,1>2:0:10" (canon "linear:2");
        Alcotest.(check string)
          "linear honors liq/comm" "graph:3;0>1:500:7,1>2:500:7"
          (canon "linear:2:500:7");
        (* every family re-parses to itself: to_string is a fixpoint *)
        List.iter
          (fun s ->
            let c = canon s in
            Alcotest.(check string) (s ^ " canonical fixpoint") c (canon c))
          [ "hub:4"; "er:6:3:9"; "sf:5:2:3"; "hub:3:900:5" ]);
    Alcotest.test_case "bad specs are rejected with reasons" `Quick (fun () ->
        List.iter
          (fun s ->
            match Topology.of_string s with
            | Ok _ -> Alcotest.failf "%S should not parse" s
            | Error _ -> ())
          [
            "";
            "graph:1;0>0:0:0";
            "graph:3;0>1:0:10";
            (* sink unreachable *)
            "graph:3;0>1:0:10,0>1:5:5,1>2:0:10";
            (* duplicate edge *)
            "graph:3;0>1:-4:10,1>2:0:10";
            "ring:4";
            "linear:0";
          ]);
    Alcotest.test_case "liquidity histogram buckets by decade" `Quick
      (fun () ->
        let t = topo_of "graph:3;0>1:0:1,0>2:5:1,1>2:500:1,2>1:700:1" in
        Alcotest.(check (list (pair string int)))
          "buckets"
          [ ("unbounded", 1); ("1-9", 1); ("100-999", 2) ]
          (Topology.liquidity_histogram t));
  ]

(* ------------------------------- router -------------------------------- *)

(* random bounded-liquidity topology + value the graph can plausibly carry *)
let route_case_arb =
  QCheck.make
    ~print:(fun (seed, value, max_splits) ->
      Printf.sprintf "%s value=%d splits=%d"
        (Topology.to_string (random_topo seed))
        value max_splits)
    QCheck.Gen.(
      triple (int_bound 10_000) (int_range 1 5_000) (int_range 1 4))

let router_tests =
  [
    qcheck
      (QCheck.Test.make
         ~name:"splits sum exactly, stay disjoint, respect liquidity"
         ~count:500 route_case_arb (fun (seed, value, max_splits) ->
           let topo = random_topo seed in
           let router = Router.create topo in
           match
             Router.route router ~avail:(full_avail topo) ~value ~max_splits
           with
           | Error _ -> true (* refusal is always sound *)
           | Ok splits ->
               let total =
                 List.fold_left (fun a s -> a + s.Router.value) 0 splits
               in
               if total <> value then
                 QCheck.Test.fail_reportf "split sum %d <> value %d" total
                   value;
               if List.exists (fun s -> s.Router.value < 1) splits then
                 QCheck.Test.fail_report "non-positive split";
               if List.length splits > max_splits then
                 QCheck.Test.fail_report "too many splits";
               let used = Hashtbl.create 16 in
               List.iter
                 (fun s ->
                   let amounts =
                     Router.leg_amounts topo ~path:s.Router.path
                       ~value:s.Router.value
                   in
                   List.iteri
                     (fun i e ->
                       if Hashtbl.mem used e then
                         QCheck.Test.fail_reportf "edge %d reused" e;
                       Hashtbl.add used e ();
                       (* the reservation the load scheduler would make
                          never exceeds what the edge actually holds *)
                       if amounts.(i) > full_avail topo e then
                         QCheck.Test.fail_reportf
                           "edge %d: reserve %d > liquidity %d" e amounts.(i)
                           (full_avail topo e))
                     s.Router.path)
                 splits;
               true));
    qcheck
      (QCheck.Test.make ~name:"routed value never exceeds the max-flow bound"
         ~count:500 route_case_arb (fun (seed, value, max_splits) ->
           let topo = random_topo seed in
           let router = Router.create topo in
           match
             Router.route router ~avail:(full_avail topo) ~value ~max_splits
           with
           | Error _ -> true
           | Ok _ -> value <= Router.max_flow topo ()));
    Alcotest.test_case "leg amounts carry downstream commissions" `Quick
      (fun () ->
        let t = topo_of "graph:4;0>1:0:7,1>2:0:3,2>3:0:5" in
        Alcotest.(check (array int))
          "suffix sums" [| 1008; 1005; 1000 |]
          (Router.leg_amounts t ~path:[ 0; 1; 2 ] ~value:1000));
    Alcotest.test_case "shortest fills the cheap path first" `Quick (fun () ->
        let t = topo_of "graph:4;0>1:600:0,0>2:600:0,1>3:600:0,2>3:600:0" in
        let r = Router.create t in
        match Router.route r ~avail:(full_avail t) ~value:1000 ~max_splits:2 with
        | Error e -> Alcotest.fail e
        | Ok splits ->
            Alcotest.(check (list int))
              "values" [ 600; 400 ]
              (List.map (fun s -> s.Router.value) splits));
    Alcotest.test_case "round-robin deals fair shares and rotates" `Quick
      (fun () ->
        let t = topo_of "graph:4;0>1:600:0,0>2:600:0,1>3:600:0,2>3:600:0" in
        let r = Router.create ~strategy:Router.Round_robin t in
        let route () =
          match
            Router.route r ~avail:(full_avail t) ~value:1000 ~max_splits:2
          with
          | Error e -> Alcotest.fail e
          | Ok ss ->
              List.map
                (fun s -> (Router.path_nodes t s.Router.path, s.Router.value))
                ss
        in
        let first = route () in
        Alcotest.(check (list (pair (list int) int)))
          "even deal"
          [ ([ 0; 1; 3 ], 500); ([ 0; 2; 3 ], 500) ]
          first;
        (* the cursor advances: the next payment leads with the other path *)
        let second = route () in
        Alcotest.(check (list (pair (list int) int)))
          "rotated deal"
          [ ([ 0; 2; 3 ], 500); ([ 0; 1; 3 ], 500) ]
          second);
    Alcotest.test_case "all-or-nothing refusal reports the shortfall" `Quick
      (fun () ->
        let t = topo_of "graph:3;0>1:300:0,1>2:300:0" in
        let r = Router.create t in
        match Router.route r ~avail:(full_avail t) ~value:1000 ~max_splits:3 with
        | Ok _ -> Alcotest.fail "1000 cannot fit through 300"
        | Error e ->
            Alcotest.(check string) "names paths, carried and asked"
              "no route: 1 disjoint path(s) carry at most 300 of 1000" e);
    Alcotest.test_case "max-flow matches hand-computed diamonds" `Quick
      (fun () ->
        let t = topo_of "graph:4;0>1:600:0,0>2:600:0,1>3:600:0,2>3:600:0" in
        Alcotest.(check int) "diamond" 1200 (Router.max_flow t ());
        let t2 = topo_of "linear:3" in
        Alcotest.(check bool) "unbounded chain" true
          (Router.max_flow t2 () >= Topology.unbounded));
  ]

(* ------------------------------ rebalance ------------------------------ *)

let rebalance_tests =
  [
    Alcotest.test_case "rebalancing evens a skewed node and converges" `Quick
      (fun () ->
        let t = topo_of "graph:3;0>1:900:0,0>2:100:0,1>2:500:0" in
        let p = Rebalance.plan t in
        Alcotest.(check bool) "proposes a move" true
          (p.Rebalance.moves <> []);
        Alcotest.(check int) "moves 400 toward the mean" 400
          p.Rebalance.volume;
        let t' = Rebalance.apply t p in
        Alcotest.(check int) "second pass is a fixpoint" 0
          (Rebalance.plan t').Rebalance.volume);
    Alcotest.test_case "balanced and unbounded graphs propose nothing" `Quick
      (fun () ->
        List.iter
          (fun s ->
            let p = Rebalance.plan (topo_of s) in
            Alcotest.(check int) (s ^ " volume") 0 p.Rebalance.volume)
          [
            "linear:3" (* unbounded edges are never rebalanced *);
            "graph:3;0>1:500:0,0>2:500:0,1>2:100:0";
            "graph:3;0>1:400:0,1>2:600:0" (* single out-edges *);
          ]);
  ]

(* ----------------------------- routed load ----------------------------- *)

let spec s =
  match Traffic.Workload.of_string s with
  | Ok w -> w
  | Error e -> Alcotest.fail e

let diamond_constrained =
  (* one fat path carries two whole payments; three thin paths only help a
     router that can split across them *)
  "graph:6;0>1:2100:0,1>5:2100:0,0>2:700:0,2>5:700:0,0>3:700:0,3>5:700:0,0>4:700:0,4>5:700:0"

let load_spec ~splits =
  Printf.sprintf
    "payments=4 hops=2 value=1000 commission=10 arrival=burst:4:1 mix=sync:1 \
     policy=reserve cap=0 liquidity=0 patience=9000 stuck=0 drift=10000 \
     gst=none topology=%s route=shortest splits=%d"
    diamond_constrained splits

(* A monitored, sampled routed run must report exactly what the bare run
   does, end with a clean monitor (conservation M and edge liquidity LIQ)
   that agrees with the post-hoc audit, and sample the three scheduler
   columns plus every edge's liquidity, never negative. *)
let check_monitored ~workload ~seed =
  let module L = Traffic.Load in
  let norm r = L.to_json { r with L.wall_ns = 1 } in
  let bare = L.run ~workload ~seed () in
  let m = Obsv.Monitor.create () in
  let s = Obsv.Sampler.create () in
  let r = L.run ~monitor:m ~sampler:s ~workload ~seed () in
  Alcotest.(check string) "monitoring changes no report" (norm bare) (norm r);
  Alcotest.(check bool) "monitor stepped" true (Obsv.Monitor.steps m > 0);
  Alcotest.(check (list string)) "monitor ends clean" []
    (List.map
       (fun (t : Obsv.Monitor.trip) -> t.property ^ ": " ^ t.detail)
       (Obsv.Monitor.violations m));
  Alcotest.(check bool) "monitor agrees with the audit" r.L.conservation_ok
    (Obsv.Monitor.violations m = []);
  let edges =
    match workload.Traffic.Workload.topology with
    | Some t -> t.Topology.edges
    | None -> Alcotest.fail "routed workload without a topology"
  in
  Alcotest.(check (list string)) "sampler columns"
    ([ "queue_depth"; "in_flight"; "admitted" ]
    @ List.init (Array.length edges) (Printf.sprintf "edge%d_liquidity"))
    (Obsv.Sampler.columns s);
  Alcotest.(check bool) "sampled" true (Obsv.Sampler.row_count s > 0);
  let drained = ref false in
  List.iter
    (fun (at, row) ->
      Array.iteri
        (fun i v ->
          if i >= 3 then begin
            if v < 0 then
              Alcotest.failf "edge%d_liquidity negative (%d) at t=%d" (i - 3)
                v at;
            if v < Topology.capacity edges.(i - 3) then drained := true
          end)
        row)
    (Obsv.Sampler.rows s);
  Alcotest.(check bool) "liquidity samples move" true !drained

let routed_load_tests =
  [
    Alcotest.test_case "multi-path strictly beats single-path commits" `Slow
      (fun () ->
        let single =
          Traffic.Load.run ~workload:(spec (load_spec ~splits:1)) ~seed:5 ()
        in
        let multi =
          Traffic.Load.run ~workload:(spec (load_spec ~splits:4)) ~seed:5 ()
        in
        let value r =
          match r.Traffic.Load.routing with
          | Some s -> s.Traffic.Load.committed_value
          | None -> Alcotest.fail "routed run lost its routing stats"
        in
        (* single-path routing strands the thin paths' liquidity *)
        Alcotest.(check int) "single commits the fat path only" 2
          single.Traffic.Load.committed;
        Alcotest.(check bool) ">=30% of offered value stranded" true
          (100 * (4000 - value single) >= 30 * 4000);
        Alcotest.(check int) "splitting commits everything" 4
          multi.Traffic.Load.committed;
        Alcotest.(check bool) "multi strictly beats single" true
          (value multi > value single);
        List.iter
          (fun (r : Traffic.Load.report) ->
            Alcotest.(check bool) "conservation" true
              r.Traffic.Load.conservation_ok;
            Alcotest.(check int) "no violations" 0 r.Traffic.Load.violated)
          [ single; multi ]);
    Alcotest.test_case "routed reports are bit-identical across reruns" `Slow
      (fun () ->
        let w =
          spec
            "payments=10 hops=2 value=800 commission=10 arrival=poisson:50 \
             mix=sync:1,htlc:1 policy=reserve cap=0 liquidity=0 \
             patience=4000 stuck=0 drift=10000 gst=none \
             topology=hub:3:3000:5 route=round-robin splits=2"
        in
        let norm r =
          Traffic.Load.to_json { r with Traffic.Load.wall_ns = 1 }
        in
        let a = norm (Traffic.Load.run ~workload:w ~seed:31 ()) in
        let b = norm (Traffic.Load.run ~workload:w ~seed:31 ()) in
        Alcotest.(check string) "same seed, same bytes" a b);
    qcheck
      (QCheck.Test.make
         ~name:"conservation holds under random faults and mixed outcomes"
         ~count:12
         QCheck.(int_bound 999)
         (fun seed ->
           let w =
             spec
               "payments=8 hops=2 value=600 commission=10 \
                arrival=poisson:30 mix=sync:1,weak:1 policy=reserve cap=0 \
                liquidity=0 patience=3000 stuck=0 drift=10000 gst=none \
                topology=hub:4:2500:5 route=shortest splits=2"
           in
           (* graph blocks are at least 2 hops -> stride >= 5 hosts *)
           let prng = Sim.Rng.create ~seed:(seed + 7919) in
           let plan =
             Faults.Fault_plan.random prng ~nprocs:5 ~horizon:4000
           in
           let r = Traffic.Load.run ~plan ~workload:w ~seed () in
           if not r.Traffic.Load.conservation_ok then
             QCheck.Test.fail_reportf "books broke under %s"
               (Faults.Fault_plan.to_string plan);
           if r.Traffic.Load.violated > 0 then
             QCheck.Test.fail_reportf "safety violated under %s: %s"
               (Faults.Fault_plan.to_string plan)
               (String.concat "; "
                  (List.map
                     (fun v -> v.Traffic.Load.detail)
                     r.Traffic.Load.violations));
           true));
    Alcotest.test_case "partial multi-path payments abort, never commit"
      `Slow (fun () ->
        (* crash the middle host: some splits pay before the crash bites,
           whole payments must still not count as committed *)
        let w =
          spec
            "payments=10 hops=2 value=1000 commission=10 arrival=burst:10:1 \
             mix=sync:1 policy=reserve cap=0 liquidity=0 patience=9000 \
             stuck=1500 drift=10000 gst=none topology=hub:3:8000:0 \
             route=round-robin splits=2"
        in
        let r =
          Traffic.Load.run ~plan:(plan_of "crash 2@700") ~workload:w ~seed:3
            ()
        in
        Alcotest.(check bool) "conservation" true
          r.Traffic.Load.conservation_ok;
        match r.Traffic.Load.routing with
        | None -> Alcotest.fail "missing routing stats"
        | Some s ->
            (* every committed payment delivered its full value; anything
               beyond that in committed_value came from partially-paid
               payments, which must not be counted as committed *)
            Alcotest.(check bool) "committed pay in full" true
              (s.Traffic.Load.committed_value
              >= r.Traffic.Load.committed * 1000);
            if s.Traffic.Load.partial_payments = 0 then
              Alcotest.(check int) "no partials: value = committed x 1000"
                (r.Traffic.Load.committed * 1000)
                s.Traffic.Load.committed_value
            else
              Alcotest.(check bool) "partials add paid-split value" true
                (s.Traffic.Load.committed_value
                > r.Traffic.Load.committed * 1000));
    Alcotest.test_case "monitor and sampler observe without perturbing" `Slow
      (fun () ->
        check_monitored ~seed:1
          ~workload:
            (spec
               "payments=40 hops=2 value=1000 commission=10 \
                arrival=poisson:20 mix=sync:1,weak:1 policy=reserve cap=0 \
                liquidity=0 patience=2000 stuck=0 drift=10000 gst=none \
                topology=sf:10:2:5:20000 route=round-robin splits=3"));
  ]

let () =
  Alcotest.run "routing"
    [
      ("topology", topology_tests);
      ("router", router_tests);
      ("rebalance", rebalance_tests);
      ("routed-load", routed_load_tests);
    ]
