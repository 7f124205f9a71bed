(** Deterministic output fingerprints.

    A fingerprint is the ordered list of integer facts a workload's output
    must repeat exactly under one code version: outcome counts, events,
    messages, sim-time latency percentiles and makespan. Sim-time figures
    live here and only here; they describe the protocol, never the speed
    of the implementation. *)

type t = (string * int) list

val diff : t -> t -> string option
(** [None] when both carry the same fields in the same order with equal
    values; otherwise a description of the first difference. *)

val to_json : t -> string
