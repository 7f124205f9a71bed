let end_to_end =
  [
    ("payments_per_s", "1/s");
    ("setup_s", "s");
    ("peak_rss_mb", "MB");
    ("minor_words_per_event", "words");
    ("committed_share", "share");
    ("run_ms_p99", "ms");
  ]

let roles =
  [
    ("traffic.sched", [ "sched" ]);
    ("protocols.alice", [ "alice" ]);
    ("protocols.chloe", [ "chloe" ]);
    ("protocols.bob", [ "bob" ]);
    ("protocols.escrow", [ "escrow" ]);
    ("protocols.node", [ "node" ]);
    ("consensus.aux", [ "aux"; "tm" ]);
    ("quorum.notary", [ "notary" ]);
  ]

let payment_protocols = [ "sync"; "weak"; "htlc"; "atomic"; "committee" ]

let per_layer =
  [
    ("traffic.load.setup_ms", "ms");
    ("traffic.load.setup_words", "words");
    ("traffic.load.teardown_ms", "ms");
    ("sim.engine.loop_ns_per_event", "ns");
    ("sim.engine.loop_words_per_event", "words");
    ("sim.engine.events_per_s", "1/s");
  ]
  @ List.concat_map
      (fun (role, _) ->
        [
          (role ^ ".ns_per_event", "ns");
          (role ^ ".words_per_event", "words");
          (role ^ ".share", "share");
        ])
      roles
  @ [
      ("trace.overhead_ratio", "ratio");
      ("xcrypto.hash.ns_per_byte", "ns");
      ("xcrypto.hash.words_per_byte", "words");
      ("xcrypto.auth.sign_ns", "ns");
      ("xcrypto.auth.sign_words", "words");
      ("xcrypto.auth.verify_ns", "ns");
      ("xcrypto.auth.verify_words", "words");
      ("xcrypto.auth.sign_cert_ns", "ns");
      ("xcrypto.auth.sign_cert_words", "words");
      ("xcrypto.auth.verify_cert_ns", "ns");
      ("xcrypto.auth.verify_cert_words", "words");
      ("quorum.committee.ser_batch_ns", "ns");
      ("quorum.committee.ser_batch_words", "words");
      ("sim.event_queue.push_pop_ns", "ns");
      ("sim.event_queue.push_pop_words", "words");
      ("sim.event_queue.cancel_ns", "ns");
      ("sim.event_queue.cancel_words", "words");
      ("sim.network.fate_ns", "ns");
      ("sim.network.fate_words", "words");
      ("faults.injector.tamper_ns", "ns");
      ("faults.injector.tamper_words", "words");
      ("ledger.book.cycle_ns", "ns");
      ("ledger.book.cycle_words", "words");
      ("ledger.book.audit_us", "us");
      ("routing.router.route_us", "us");
      ("routing.router.route_words", "words");
      ("routing.router.route_half_us", "us");
      ("routing.router.route_half_words", "words");
    ]
  @ List.concat_map
      (fun p ->
        [
          ("protocols." ^ p ^ ".payment_us", "us");
          ("protocols." ^ p ^ ".payment_words", "words");
        ])
      payment_protocols
  @ [
      ("obsv.monitor.step_us", "us");
      ("gc.minor_collections", "count");
      ("gc.major_collections", "count");
      ("gc.promoted_words_per_event", "words");
      ("gc.top_heap_mb", "MB");
      ("sim.engine.events", "count");
      ("sim.network.messages_per_payment", "count");
      ("sim.engine.timers_set_per_payment", "count");
      ("sim.engine.timers_stale_share", "share");
      ("sim.engine.queue_depth_max", "count");
      ("consensus.rounds_per_cert", "count");
      ("quorum.committee.verdicts_per_cert", "count");
      ("routing.router.paths_per_payment", "count");
      ("faults.injector.injected_per_run", "count");
    ]

let workloads =
  [ "linear_open_mixed"; "routed_split_drain"; "committee_burst"; "chaos_soak_monitored" ]
