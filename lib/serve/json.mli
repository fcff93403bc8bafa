(** Minimal JSON codec for the daemon's JSON-lines wire protocol.

    One value type, a strict recursive-descent parser and a compact
    single-line printer — no external dependency, mirroring the repo's
    zero-dep discipline ({!Tce_obs.Obs} writes its Chrome traces the same
    way). Numbers are floats (integers round-trip exactly up to 2⁵³);
    NaN/infinity print as [null] rather than corrupt a line. *)

type t =
  | Null
  | Bool of bool
  | Num of float
  | Str of string
  | Arr of t list
  | Obj of (string * t) list

val to_string : t -> string
(** Compact, single-line rendering (no newlines are ever emitted, so a
    value is always a valid JSON-lines record). *)

exception Parse_error of string

val max_depth : int
(** 512: the deepest nesting of arrays and objects {!parse_exn} accepts.
    A request is one object of scalar fields plus an [id] echoed
    verbatim, so the limit only refuses lines built to stall the
    parser. *)

val parse_exn : string -> t
(** Strict parse of exactly one JSON value (leading/trailing whitespace
    allowed, trailing garbage rejected). Raises {!Parse_error} — also
    for a value nested deeper than {!max_depth}, with a message naming
    the limit. *)

val parse : string -> (t, string) result

(** {2 Accessors} — total, [None] on shape mismatch. *)

val member : string -> t -> t option
val to_float : t -> float option
val to_int : t -> int option
(** [None] unless the number is integral. *)

val to_str : t -> string option
val to_bool : t -> bool option
val to_list : t -> t list option
