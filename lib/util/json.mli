(** The repo's one JSON codec: the daemon's JSON-lines wire protocol,
    [Obs]'s Chrome trace export and its trace checker, and the bench's
    [BENCH_*.json] artifacts all go through it.

    One value type, a strict recursive-descent parser and a compact
    single-line printer, with no external dependency. Numbers are floats
    (integers round-trip exactly up to 2⁵³); NaN/infinity print as
    [null] rather than corrupt a line. *)

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
    verbatim, and a trace or a bench artifact nests three levels deep,
    so the limit only refuses input built to stall the parser. *)

val parse_exn : string -> t
(** Strict parse of exactly one JSON value (leading/trailing whitespace
    allowed, trailing garbage rejected). Numbers follow RFC 8259's
    grammar, so [+1], [.5], [1.], [01], [-], [1e] and [--1] are refused.
    Raises {!Parse_error} — also for a value nested deeper than
    {!max_depth}, with a message naming the limit. *)

val parse : string -> (t, string) result

(** {2 Accessors} — total, [None] on shape mismatch. *)

val member : string -> t -> t option
val to_float : t -> float option
val to_int : t -> int option
(** [None] unless the number is integral. *)

val to_list : t -> t list option
