(** A simulated message-passing cluster with per-processor clocks.

    This is the stand-in for the paper's Itanium cluster (see DESIGN.md
    §1). Every processor carries its own clock; a shift round advances each
    clock by the link time of the bytes it moves, synchronized with the
    peer it exchanges with; barriers equalize clocks. Cannon executions are
    bulk-synchronous, so with evenly divisible blocks all clocks agree and
    the simulated time equals the analytic model exactly; with ragged
    blocks the clocks diverge and the simulation reports the true critical
    path.

    An optional {!Fault} model injects per-link bandwidth degradation,
    straggler compute rates, transient message loss (retry/backoff
    charged to the sender's clock) and node crashes — the healthy cluster
    is the [?faults:None] special case and behaves bit-identically to the
    fault-free code path. *)

open! Import

type t

val create : ?faults:Fault.t -> ?topo:Topology.t -> Params.t -> Grid.t -> t
(** Every shift round is priced by {!Topology.step_time} for the link
    class of the rotated axis ({!Topology.axis_link}, classified once
    here). [?topo] defaults to [Topology.uniform params], on which every
    link costs [Params.step_time] — the paper's flat replay. Raises
    [Invalid_argument] when the fault model was instantiated for a grid
    of a different size. *)

val params : t -> Params.t
val grid : t -> Grid.t

val faults : t -> Fault.t option

val clock : t -> float
(** The maximum clock over all processors (elapsed simulated time). *)

val comm_seconds : t -> float
(** Accumulated communication time on the critical path. *)

val compute_seconds : t -> float
(** Accumulated computation time on the critical path. *)

val crashed : t -> (int * float) option
(** [Some (rank, at)] when the fault model's crash time has been reached
    by the simulated clock (and from then on). *)

val compute : t -> flops:(int * int -> float) -> unit
(** Advance every processor by its local computation time;
    [flops (z1, z2)] gives the per-processor operation count. Straggler
    ranks are slowed by their fault-model factor. *)

val compute_uniform : t -> flops_per_proc:float -> unit

val shift_round : t -> axis:int -> bytes:(int * int -> float) -> unit
(** One synchronized shift round along the given grid axis: every processor
    sends a block to its −1 neighbour and receives from its +1 neighbour.
    [bytes (z1, z2)] is the size each processor sends; each pairwise
    exchange completes when both ends are ready plus the link time (scaled
    by the sender's link-degradation factor, plus any transient-loss
    retries). *)

val shift_round_uniform : t -> axis:int -> bytes:float -> unit

val advance_comm_uniform : t -> seconds:float -> (unit, Tce_error.t) result
(** Advance every clock by a fixed communication delay (used for costs the
    simulator does not replay round-by-round, e.g. redistributions).
    [Error (Negative_time _)] on a negative duration. *)

val barrier : t -> unit
(** Set every clock to the maximum. *)

val reset : t -> unit
