(** Every metric the benchmark reports, with its unit.

    A run with [--trace 0] reports exactly {!end_to_end}; a run with
    [--trace 1] reports exactly {!per_layer}. A per-layer metric whose
    layer does no work on a workload reads 0 there. *)

val end_to_end : (string * string) list
val per_layer : (string * string) list

val roles : (string * string list) list
(** Per-role metric prefix, and the engine process labels it sums
    ([Traffic.Load] labels ["sched"], ["alice"], ...; a chaos run labels
    its transaction managers ["tm"]). *)

val payment_protocols : string list
(** The protocols with a standalone payment probe, by workload-spec name. *)

val workloads : string list
