(** Formula sequences: a whole computation as a list of formulas, the last
    of which produces the final result (paper §2).

    A sequence is validated so that every operand is either a declared input
    array or the result of an earlier formula (referenced with the same
    index set — order may differ, references are by index name), and no
    array is defined twice. *)

open! Import

type t = private { inputs : Aref.t list; formulas : Formula.t list }

val create : inputs:Aref.t list -> Formula.t list -> (t, string) result
val create_exn : inputs:Aref.t list -> Formula.t list -> t

val inputs : t -> Aref.t list
val formulas : t -> Formula.t list

val output : t -> Aref.t
(** The last formula's left-hand side. *)

val intermediates : t -> Aref.t list
(** Left-hand sides of all formulas except the last. *)

val find_def : t -> string -> Formula.t option
(** The formula defining the named array, if any. *)

val all_indices : t -> Index.Set.t
(** Every index mentioned anywhere. *)

val eval : Extents.t -> inputs:(string * Dense.t) list -> t -> Dense.t
(** Reference evaluation with the naive einsum engine. The tensors must
    match the declared input arefs (same labels, extents from the
    environment). Raises [Invalid_argument] on mismatch. *)

val eval_all : Extents.t -> inputs:(string * Dense.t) list -> t
  -> (string * Dense.t) list
(** Like {!eval} but returns every intermediate as well, in definition
    order. *)

val random_inputs : Extents.t -> seed:int -> t -> (string * Dense.t) list
(** Deterministically random input tensors sized from the environment. *)

val pp : Format.formatter -> t -> unit
(** One formula per line. *)
