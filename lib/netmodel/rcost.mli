(** The RCost communication-cost service (paper §3.3).

    [RCost(localsize, α, i)] is the cost of fully rotating the blocks of an
    α-distributed array, with [localsize] words per processor, along
    rotation axis [i]. The paper measures it empirically on the target
    machine for a grid of sizes and distribution shapes, stores the results
    in a characterization file, and answers queries by interpolation /
    extrapolation. We follow the same pipeline: a measurement function
    (either the analytic model or the discrete-event machine simulator) is
    sampled once per grid shape, written to disk, and queried thereafter —
    the optimizer never sees the underlying machine. *)

open! Import

type t
(** A characterization: per rotation axis, rotation cost as a function of
    local block size in words, for one grid shape (the paper's square
    √P × √P, or a rectangular R × C shape for topology-aware planning). *)

val rows : t -> int
val cols : t -> int
val is_square : t -> bool

val characterize :
  side:int -> samples:int list -> measure:(axis:int -> words:int -> float)
  -> t
(** Run the measurement at every sample size (in words, must be positive
    and non-empty) for both rotation axes, on a square grid. *)

val characterize_rect :
  rows:int -> cols:int -> samples:int list
  -> measure:(axis:int -> words:int -> float) -> t
(** {!characterize} for a rectangular R × C grid shape. *)

val default_samples : int list
(** A geometric ladder of block sizes (1 Kword … 16 Mwords) augmented with
    the knot sizes of the fitted Itanium table, so that characterizing the
    analytic model reproduces it exactly. *)

val analytic_measure : Params.t -> side:int -> axis:int -> words:int -> float
(** The analytic model: [side · step_time(8·words)] (both axes equal). *)

val of_params : Params.t -> side:int -> t
(** [characterize] over {!default_samples} with {!analytic_measure}. *)

val topology_measure : Topology.t -> Grid.t -> axis:int -> words:int -> float
(** The topology-aware analytic model:
    [rotation_steps(axis) · step_time(link(axis), 8·words)] — the number
    of shift steps of a full rotation along the axis (see
    {!Grid.rotation_steps}) times the per-step time over the axis's link
    class. On a uniform topology and a square grid this is
    float-identical to {!analytic_measure}. *)

val of_topology : Topology.t -> Grid.t -> t
(** [characterize_rect] over {!default_samples} with
    {!topology_measure}; the grid fixes the shape. *)

val query : t -> axis:int -> words:int -> float
(** Interpolated rotation cost. [axis] must be 1 or 2; [words >= 0]. *)

val save : t -> path:string -> (unit, string) result
(** Write the characterization file (a self-describing text format; the
    v1 format of square characterizations is unchanged, rectangular
    shapes are written as v2). *)

val load : path:string -> (t, string) result

val pp : Format.formatter -> t -> unit
(** Summary: shape, sample counts, a few sample values. *)

val fingerprint : t -> string
(** A deterministic content string of the whole characterization (shape
    and both axis tables at full float precision): two characterizations
    answer every query identically iff their fingerprints are equal. Used
    as a component of the planning daemon's cache key. Unchanged for
    square characterizations. *)
