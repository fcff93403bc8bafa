(** The size and communication equations of paper §3.2–3.3.

    For an array [v] with dimension indices [dims], distribution [α] and
    fusion [f] with its parent (a set of fused loop indices, eliminated
    from the stored array):

    - [DistRange(i)] is the per-processor range of dimension [i]: 1 when
      fused away, [N_i/√P] when distributed, [N_i] otherwise;
    - [DistSize] is the per-processor block size in words (the product of
      the ranges);
    - [LoopRange(j)] is how many times the fused [j]-loop iterates around
      the communication: 1 when not fused, [N_j/√P] when fused and
      distributed, [N_j] when fused and undistributed;
    - [MsgFactor] is the product of the loop ranges — the number of times
      the array is communicated;
    - [RotateCost = MsgFactor · RCost(DistSize, α, axis)].

    Every function takes the grid as [rows] × [cols] (the paper's
    √P × √P grid is [rows = cols = √P]): distribution position 1 divides
    its dimension by [rows], position 2 by [cols]. Non-divisible extents
    are handled with ceiling division, slightly overestimating sizes (a
    safe direction for a memory limit). *)

open! Import

val dist_range_rect :
  Extents.t -> rows:int -> cols:int -> alpha:Dist.t -> fused:Index.Set.t
  -> Index.t -> int

val dist_size_rect :
  Extents.t -> rows:int -> cols:int -> alpha:Dist.t -> fused:Index.Set.t
  -> dims:Index.t list -> int
(** Per-processor words of the stored (fusion-reduced, distributed)
    array. *)

val loop_range_rect :
  Extents.t -> rows:int -> cols:int -> alpha:Dist.t -> fused:Index.Set.t
  -> Index.t -> int

val msg_factor_rect :
  Extents.t -> rows:int -> cols:int -> alpha:Dist.t -> fused:Index.Set.t
  -> dims:Index.t list -> int
(** How many separate rotations the fused loops force. 1 when [fused] is
    empty: the array is rotated exactly once. *)

val rotate_cost_rect :
  rcost:Rcost.t -> Extents.t -> alpha:Dist.t -> fused:Index.Set.t
  -> dims:Index.t list -> axis:int -> float
(** Total communication cost for rotating the array along processor
    dimension [axis], on the characterization's R × C shape. The search
    prices rotations through {!masked_rotate_cost}; this set form is the
    reference the mask forms are tested against. *)

val full_words : Extents.t -> dims:Index.t list -> int
(** Size of the undistributed, unfused array (for reporting). *)

(** {2 Fusion masks}

    The search prices one array under one distribution for many fusion
    sets, all subsets of one [universe] of indices. A fusion set is then
    an int mask whose bit [k] stands for the [k]-th index of [universe],
    and each equation above is a product over the array's dimensions of
    one per-dimension range: a dimension's unfused [DistRange] equals its
    fused [LoopRange]. So [DistSize] is the product of the unfused
    dimensions' ranges and [MsgFactor] that of the fused ones, the same
    integers as the set-based forms. *)

type masked
(** An array's dimensions under one distribution and grid: per
    dimension, its mask bit and its range. *)

val masked :
  Extents.t -> rows:int -> cols:int -> alpha:Dist.t -> universe:Index.t list
  -> dims:Index.t list -> masked
(** A dimension missing from [universe] is never fused. *)

val masked_size : masked -> int -> int
(** [masked_size m mask] is {!dist_size_rect} with [fused] the indices
    of [universe] that [mask] selects. *)

val masked_rotate_cost : rcost:Rcost.t -> masked -> axis:int -> int -> float
(** {!rotate_cost_rect} over a mask, as {!masked_size}: the same float
    product when [m] was built on [rcost]'s R × C shape. *)
