(* One timed call into the program, and what the benchmark checks of it. *)

type t = {
  wall_ns : int;
  words : int;  (** minor words allocated during the call *)
  events : int;  (** engine events dispatched *)
  attempted : int;
  committed : int;
  failed : int;  (** safety violations plus stuck payments *)
  fingerprint : Perfbench_core.Fingerprint.t;
  problems : string list;  (** failed output checks; empty when correct *)
  run_ms : float list;
      (** host ms of each run in the call: each chaos run of a soak pass,
          or the whole call for a load *)
}

(* A full major collection first, outside the timed window, so one call's
   garbage is not collected on the next call's time. *)
let timed f =
  Gc.full_major ();
  let w0 = Pclock.minor_words () and t0 = Pclock.now_ns () in
  let r = f () in
  let t1 = Pclock.now_ns () and w1 = Pclock.minor_words () in
  (r, t1 - t0, w1 - w0)

(* Engine counters, which every engine records into the default registry. *)
type counters = { timers_set : int; timers_stale : int }

let counter name = Obsv.Metrics.counter_value (Obsv.Metrics.counter Obsv.Metrics.default name)

let read_counters () =
  {
    timers_set = counter "xchain_timers_set_total";
    timers_stale = counter "xchain_timers_stale_total";
  }

let counters_since a =
  let b = read_counters () in
  { timers_set = b.timers_set - a.timers_set; timers_stale = b.timers_stale - a.timers_stale }

let gc_metrics (g0 : Gc.stat) (g1 : Gc.stat) ~events =
  let mb words = float_of_int (words * (Sys.word_size / 8)) /. 1048576. in
  [
    ("gc.minor_collections", float_of_int (g1.minor_collections - g0.minor_collections));
    ("gc.major_collections", float_of_int (g1.major_collections - g0.major_collections));
    ( "gc.promoted_words_per_event",
      (g1.promoted_words -. g0.promoted_words) /. float_of_int (max 1 events) );
    ("gc.top_heap_mb", mb g1.top_heap_words);
  ]
