(** Per-node memory accounting against the machine's limit.

    The paper accounts the sum of every array's per-processor block
    (inputs, intermediates and output all stay resident), times the
    processors per node, plus one temporary send/receive buffer sized by
    the largest message in flight (§4's "extra 115.2MB temporary
    send/receive buffer"). *)

open! Import

type t = {
  resident_words : int;  (** Σ per-processor block sizes, in words *)
  buffer_words : int;  (** largest communicated block, in words *)
}

val empty : t

val add_resident : t -> int -> t
val add_message : t -> int -> t
(** Track a communicated block: buffer = max over messages. *)

val merge : t -> t -> t
(** Combine the accounts of two disjoint subtrees. *)

val node_bytes : Params.t -> t -> float
(** Bytes per node: [procs_per_node · 8 · (resident + buffer)]. *)

val bytes_per_word : Params.t -> float
(** [procs_per_node · 8]: {!node_bytes} is this times the account's
    words. *)

val fits : Params.t -> t -> bool
(** True iff {!node_bytes} is within the machine's per-node memory. *)

val pp : Format.formatter -> t -> unit
