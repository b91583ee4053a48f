(** Minimal JSON values with a deterministic printer.

    The observability layer (lib/obs) serialises metric registries to
    JSON; byte-identical output for identical inputs is a hard
    requirement (same seed => same metrics file), so rendering uses
    fixed number formats and preserves object-field order exactly as
    given — emitters sort fields themselves where order matters. *)

type t =
  | Null
  | Bool of bool
  | Int of int
  | Float of float
  | String of string
  | List of t list
  | Obj of (string * t) list

val to_string : t -> string
(** Compact rendering (no whitespace). [Float nan] and infinities
    render as [null]; finite floats use ["%.12g"]. *)

val to_string_pretty : t -> string
(** Two-space indented rendering, for files meant to be read. *)
