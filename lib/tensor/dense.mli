(** Dense tensors with named dimensions.

    A tensor's dimensions are labeled by distinct index variables; all
    element access and all algebra (contraction, summation, blocking) is by
    label, never by position, which makes the correspondence with the
    contraction expressions direct and rules out axis-order bugs. Data is
    stored row-major in the label order given at creation. *)

open! Import

type t

val create : (Index.t * int) list -> t
(** [create dims] is a zero tensor with the given labeled extents. Labels
    must be distinct and extents positive; raises [Tce_error.Error]
    otherwise. A rank-0 tensor ([dims = \[\]]) is a scalar. *)

val init : (Index.t * int) list -> f:(int Index.Map.t -> float) -> t
(** Like {!create} but each element is initialized from its coordinate,
    presented as a map from dimension label to position. *)

val scalar : float -> t
(** Rank-0 tensor holding one value. *)

val dims : t -> (Index.t * int) list
(** Labeled extents in storage order. *)

val labels : t -> Index.t list

val rank : t -> int

val size : t -> int
(** Total element count. *)

val extent_of : t -> Index.t -> int
(** Extent of a dimension by label; raises [Not_found] for foreign labels. *)

val has_label : t -> Index.t -> bool

val stride_of : t -> Index.t -> int
(** Row-major storage stride of a dimension by label; raises [Not_found]
    for foreign labels. *)

(** {2 Flat-buffer view}

    Storage is an unboxed C-layout [Bigarray.Array1] of float64 —
    contiguous, unscanned by the GC, shareable across domains, and
    FFI-ready. The kernel layer addresses elements by flat offset into
    the live row-major storage; everyone else goes through the labeled
    accessors or the safe copies below (the former [data : t -> float
    array] escape hatch is gone, so no caller can alias the raw buffer
    behind the kernel's back). Offsets are the stride dot-product of the
    coordinate; no bounds checks are performed by the [unsafe_*]
    accessors. *)

type buf = (float, Bigarray.float64_elt, Bigarray.c_layout) Bigarray.Array1.t
(** The storage representation: unboxed float64, C layout, rank 1. *)

val buf : t -> buf
(** The live backing buffer, row-major in label order — {b kernel-layer
    only}. Writes through it mutate the tensor; all other code must use
    the labeled accessors, {!to_floats}, or the algebra in [Einsum]. *)

val to_floats : t -> float array
(** A fresh copy of the elements, row-major in label order. Safe view
    for tests and diagnostics; mutating the result does not touch the
    tensor. *)

val bits_equal : t -> t -> bool
(** True iff both tensors have identical labels, extents, storage order
    and {b bitwise}-identical elements (an [Int64.bits_of_float]
    comparison, so NaNs compare by payload and [-0.] differs from
    [0.]). *)

val unsafe_get : t -> int -> float
(** Element at a flat offset; no bounds check. *)

val unsafe_set : t -> int -> float -> unit
(** Write an element at a flat offset; no bounds check. *)

val get : t -> int Index.Map.t -> float
(** Element at a coordinate given by label. The map must bind exactly the
    tensor's labels to in-range positions. *)

val set : t -> int Index.Map.t -> float -> unit

val add_at : t -> int Index.Map.t -> float -> unit
(** Accumulate into an element. *)

val get_value : t -> float
(** The value of a scalar (rank-0) tensor; raises [Tce_error.Error]
    otherwise. *)

val fill : t -> float -> unit

val copy : t -> t

val relabel : t -> Index.t list -> t
(** [relabel t labels] is a fresh tensor with the same extents, storage
    order and bitwise-identical elements, but dimension [d] renamed to
    [List.nth labels d]. The positional renaming of the sum-plan CSE
    reads: a pure buffer copy, no element is reordered or recomputed.
    Raises [Tce_error.Error] on a length mismatch or repeated labels. *)

val fill_random : t -> Prng.t -> unit
(** Uniform values in [\[-1, 1)]. *)

val iteri : t -> f:(int Index.Map.t -> float -> unit) -> unit
(** Visit every element with its labeled coordinate, row-major. *)

val map : t -> f:(float -> float) -> t
(** Pointwise image of [t] under [f]; same labeled shape and storage
    order, fresh storage. *)

val map2 : t -> t -> f:(float -> float -> float) -> t
(** Pointwise combination; the tensors must have identical labeled shapes
    ({i including} storage order). *)

val frobenius : t -> float
(** Square root of the sum of squared elements. *)

val equal_approx : ?tol:float -> t -> t -> bool
(** True iff both tensors have the same labels/extents (any storage order)
    and elements agree within absolute-plus-relative tolerance [tol]
    (default [1e-9]). *)

val transpose : t -> Index.t list -> t
(** [transpose t order] rearranges storage to the given complete label
    permutation. *)

val slice : t -> Index.t -> int -> t
(** [slice t i pos] fixes label [i] at position [pos] and drops that
    dimension. *)

val block : t -> (Index.t * (int * int)) list -> t
(** [block t ranges] extracts the rectangular sub-block
    [(offset, length)] per listed label; unlisted labels keep their full
    range. The result has the same label order and the block's extents. *)

val set_block : t -> (Index.t * int) list -> t -> unit
(** [set_block t offsets blk] writes block [blk] into [t] at the given
    per-label offsets (0 for unlisted labels). Shapes must fit. *)

val add_block : t -> (Index.t * int) list -> t -> unit
(** Like {!set_block} but accumulates instead of overwriting. *)
