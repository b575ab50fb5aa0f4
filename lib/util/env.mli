(** Environment-variable readers with the repo-wide convention that an
    unset variable and a blank ([""] or whitespace-only) value both mean
    "default" — a shell's [VAR= cmd] and [Unix.putenv v ""] (the only
    way to "remove" a variable from inside the process) behave exactly
    like not setting the knob at all.

    [lookup] (default [Sys.getenv_opt]) is where values come from, so
    the same rules parse any table of knobs. *)

val var : ?lookup:(string -> string option) -> string -> string option
(** [var name] is the trimmed value, or [None] when unset or blank. *)

val int : ?lookup:(string -> string option) -> string -> default:int -> int
(** @raise Invalid_argument on a non-blank, non-integer value. *)

val float :
  ?lookup:(string -> string option) -> string -> default:float -> float
(** @raise Invalid_argument on a non-blank, non-numeric value. *)

val flag : ?lookup:(string -> string option) -> string -> default:bool -> bool
(** Accepts [1/on/true/yes] and [0/off/false/no].
    @raise Invalid_argument on any other non-blank value. *)
