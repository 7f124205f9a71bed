(** The name grammar every reported metric and workload obeys. *)

val valid_name : string -> bool
(** 1 to 64 letters, digits, [_], [.] and [-], starting with a letter or
    a digit. *)

val valid_unit : string -> bool
(** 1 to 16 letters, digits, [_], [/], [%], [.] and [-] ([ms], [1/s]). *)

val check : (string * string) list -> (unit, string list) result
(** Validate a [(name, unit)] catalogue: every name and unit well formed,
    and no name used twice. *)
