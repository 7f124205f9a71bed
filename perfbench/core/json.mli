(** Minimal JSON writers for the benchmark's result line and trace file. *)

val str : string -> string
val num : float -> string
(** Every digit of the value; raises [Invalid_argument] on a NaN or an
    infinity, which JSON cannot carry. *)

val obj : (string * string) list -> string
(** Members are already-encoded JSON values. *)

val arr : string list -> string
