(** Flight recorder: bounded ring of recent engine events.

    When armed ([Sim.Engine.create ~recorder]), the engine records one
    entry per dispatched event into a fixed-size ring — old entries are
    overwritten, never reallocated. On the first safety violation (or a
    stuck-at-horizon run) the harness dumps the retained window plus the
    causal-DAG slice, a metrics snapshot and the one-line repro as a
    {e forensic bundle}; replaying the repro reproduces the bundle byte
    for byte.

    Recording costs a few stores per event and is entirely absent when no
    recorder is armed (one [option] match, the {!Prof} contract). *)

type t

type entry = {
  at : int;  (** sim-time of the dispatch *)
  kind : string;  (** deliver / fire / crash / recover *)
  src : int;  (** sender (deliver) or owner (fire/crash/recover) pid *)
  dst : int;  (** destination pid, [-1] when not applicable *)
  label : string;  (** message tag or timer label *)
}

val create : ?capacity:int -> unit -> t
(** Ring capacity defaults to 256 entries; raises [Invalid_argument]
    when not positive. *)

val record : t -> at:int -> kind:string -> src:int -> dst:int ->
  label:string -> unit

val window : t -> entry list
(** The retained tail, oldest first — at most [capacity] entries. *)

val recorded : t -> int
(** Total entries ever recorded (≥ [List.length (window t)]). *)

val dropped : t -> int
(** Entries overwritten by ring wrap-around. *)

val capacity : t -> int

val window_json : t -> string
(** The window as a JSON array of entry objects. *)

val bundle_json :
  monitor:Monitor.t ->
  stuck:string * int ->
  repro:string ->
  ?causal:Causal.t ->
  ?metrics:string ->
  t ->
  string
(** Assemble the forensic bundle. The breach is the [monitor]'s first
    trip (reason ["violation"], its property, detail and the exact
    sim-time it tripped); a run whose monitor never tripped is reported
    as reason ["stuck"], property ["-"], with the [stuck] (detail,
    sim-time) pair. [repro] is the one-line replay command; [causal]
    adds the DAG slice (its last 64 nodes, plus totals); [metrics] is a
    pre-rendered JSON fragment. Missing parts render as [null].
    Deterministic: equal runs give byte-identical bundles. *)
