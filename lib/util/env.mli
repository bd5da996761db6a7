(** Reading the [HEMLOCK_*] switches from the environment, so a value
    means the same thing everywhere.  Unset, empty or blank means the
    default.  The [*_of] functions are the pure parsers; they take the
    raw value ([None] when unset). *)

(** [flag_of v] is [false] for [None], a blank value or ["0"] (after
    trimming blanks), and [true] otherwise. *)
val flag_of : string option -> bool

(** [string_of v] is [v] with surrounding blanks trimmed, or [None] if
    that leaves it empty. *)
val string_of : string option -> string option

(** [int_of ~min var v] is [None] for [None] or a blank value, and
    [Some n] for an integer [n >= min].  Anything else raises [Failure]
    naming [var]. *)
val int_of : ?min:int -> string -> string option -> int option

(** [flag var], [string var] and [int ?min var] read [var] through the
    parsers above. *)
val flag : string -> bool

val string : string -> string option
val int : ?min:int -> string -> int option
