(** Order statistics for the benchmark's timing samples. *)

val median : float list -> float
(** Middle sample, or the mean of the two middle samples for an even
    count. Raises [Invalid_argument] on an empty list. *)

val percentile : float list -> permille:int -> float
(** Nearest-rank percentile: the smallest sample with at least
    [permille]/1000 of all samples at or below it ([permille = 990] is
    p99). *)

val tail_permille : int -> int option
(** The percentile rule: of p99.9, p99, p95, p90, p75 and p50, the
    highest that leaves at least ten of [n] samples beyond it, or [None]
    when [n] supports none of them (fewer than 20 samples). *)

val tail : float list -> float * int option
(** The sample at {!tail_permille} and that permille; the {!median} and
    [None] when the count supports no tail percentile. *)
