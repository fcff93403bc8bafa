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
    dimension [axis], on the characterization's R × C shape. *)

val full_words : Extents.t -> dims:Index.t list -> int
(** Size of the undistributed, unfused array (for reporting). *)
