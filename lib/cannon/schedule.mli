(** Executable block placement for a Cannon variant on an R × C grid.

    A schedule describes, for every multiply-step [t ∈ 0..steps-1] and
    every processor [(z1, z2)], which block of each array the processor
    holds, and which arrays move between one step and the next. It is the
    one description of Cannon placement: [Multicore] executes it on
    domains, fused plans included, and [Simulate] reads it on square
    grids.

    Block [(b1, b2)] of a role means: the slab owning chunk [b1] of the
    index at position 1 of the role's distribution and chunk [b2] of the
    index at position 2 (chunks per {!Grid.myrange}); all other dimensions
    are whole. Home placement is block [(b1, b2)] on processor
    [(b1, b2)]; the fixed array stays home.

    The rotation index ω is chunked twice: at the granularity of axis 1
    for the rotated role that moves along axis 1, and of axis 2 for the
    other. Call the longer axis fine and the shorter coarse (axis 1 on a
    square grid). When the coarse length divides the fine one
    ([m = fine / coarse]), a skewed single pass of [fine] steps works: the
    fine role moves every step and the coarse role each time its rank's
    fine chunk crosses a coarse boundary. A square grid is the [m = 1]
    case: every rotated role's chunk at step [t] is
    [(z1 + z2 + t) mod side] and both roles move every step. Otherwise a
    nested sweep of [coarse · fine] steps visits every (fine, coarse)
    chunk pair once. Either way a rank multiplies, at each step, over the
    intersection of the two held ω ranges ({!window}), so every
    contribution is computed exactly once. Movement is one hop toward the
    lower coordinate, and the shift after the final step is elided, so
    each rotated role shifts [Grid.rotation_steps] times or one fewer. *)

open! Import

type t

val make : Variant.t -> Grid.t -> t

val steps : t -> int
(** Number of multiply-steps: [side] on a square grid, the fine axis
    length when the coarse one divides it, [rows · cols] otherwise. *)

val block_at : t -> Variant.role -> step:int -> z1:int -> z2:int -> int * int
(** Block coordinates held by processor [(z1, z2)] at the given step. *)

val shifts_after :
  t -> step:int -> z1:int -> z2:int -> (Variant.role * int) list
(** The rotated roles processor [(z1, z2)] exchanges after the given
    step, each with its rotation axis, fine role first. Both partners of
    every exchange list it. Empty after the final step; a role never
    moves along a length-1 axis. *)

val block_ranges :
  t -> Extents.t -> Variant.role -> dims:Index.t list -> step:int -> z1:int
  -> z2:int -> (Index.t * (int * int)) list
(** [(offset, length)] per dimension in [dims] of the role's block held
    at the given step: its chunk of each distributed index, the whole
    extent of every other dimension. *)

val omega_range :
  t -> Extents.t -> Variant.role -> step:int -> z1:int -> z2:int -> int * int
(** [(offset, length)] of the ω range a rotated role's block holds at the
    given step. Raises [Invalid_argument] for the fixed role, which has
    no ω dimension. *)

val window :
  t -> Extents.t -> step:int -> z1:int -> z2:int -> (int * int) option
(** The ω range [(offset, length)] processor [(z1, z2)] multiplies over
    at the given step: the intersection of the two rotated roles'
    {!omega_range}s, or [None] when they are disjoint and the step has no
    work. Over all steps, every rank covers every ω element exactly once
    per pair of chunks of the two other distributed indices. *)
