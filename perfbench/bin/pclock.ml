(* The host clock the benchmark hands to [Obsv.Prof].

   The profiler reads its clock for the first time when the engine's run
   loop begins (after every process is added and started), and for the
   last time when the loop ends. So a call's set-up is the time from
   entering it to the first read, and its teardown is the time from the
   last read to its return. A clock armed with [~stop:true] raises
   [Setup_done] at the first read, which ends the call right after set-up:
   the benchmark times set-up without running the workload. *)

exception Setup_done

type t = {
  mutable stop : bool;
  mutable reads : int;
  mutable first_ns : int;
  mutable first_words : int;
  mutable last_ns : int;
  mutable depth : Obsv.Metrics.gauge option;
  mutable depth_max : int;
}

let now_ns () = int_of_float (Unix.gettimeofday () *. 1e9)
let minor_words () = int_of_float (Gc.minor_words ())

let create () =
  {
    stop = false;
    reads = 0;
    first_ns = 0;
    first_words = 0;
    last_ns = 0;
    depth = None;
    depth_max = 0;
  }

let arm t ~stop =
  t.stop <- stop;
  t.reads <- 0

let read t () =
  let now = now_ns () in
  if t.reads = 0 then begin
    t.first_ns <- now;
    t.first_words <- minor_words ();
    if t.stop then raise Setup_done
  end;
  t.reads <- t.reads + 1;
  t.last_ns <- now;
  (match t.depth with
  | Some g -> t.depth_max <- max t.depth_max (Obsv.Metrics.gauge_value g)
  | None -> ());
  now

(* A profiler on [t]'s clock. With [~track_depth] the clock also keeps the
   deepest event queue seen: the engine stores the queue depth into its
   [xchain_event_queue_depth] gauge after every pop, just before the
   profiler reads the clock for that event. *)
let profiler ?(track_depth = false) t =
  if track_depth then
    t.depth <-
      Some (Obsv.Metrics.gauge Obsv.Metrics.default "xchain_event_queue_depth");
  Obsv.Prof.create ~now_ns:(read t) ~metrics:(Obsv.Metrics.create ()) ()

(* Time set-up only: [call prof] must run the workload with [prof]
   attached; it is cut at the engine's first clock read. Returns
   (set-up ns, set-up minor words). *)
let setup_only call =
  let clk = create () in
  arm clk ~stop:true;
  let prof = profiler clk in
  let t0 = now_ns () and w0 = minor_words () in
  match call prof with
  | _ -> failwith "workload finished without reading the profiler clock"
  | exception Setup_done -> (clk.first_ns - t0, clk.first_words - w0)
