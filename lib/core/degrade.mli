(** Graceful degradation: replanning on the surviving sub-grid after a
    node crash.

    The Cannon template needs a full √P×√P torus, so losing even one
    processor invalidates a plan outright. Rather than failing the
    computation, the fault-tolerant path re-runs the memory-constrained
    search on the next-smaller square grid ((√P−1)²) — every surviving
    rank can host one of its logical processors — and reports how much
    communication the degradation costs. Communication per array scales
    like N²/√P, so the degraded plan's cost is finite and at least the
    healthy plan's; the delta is exactly the headroom a scheduler gives
    up by not replacing the node. *)

open! Import

type report = {
  healthy : Plan.t;
  degraded : Plan.t;
  healthy_grid : Grid.t;
  degraded_grid : Grid.t;
  comm_delta : float;  (** degraded comm cost − healthy comm cost *)
  comm_ratio : float;  (** degraded / healthy (infinite if healthy = 0) *)
}

val survivor_grid : Grid.t -> (Grid.t, string) result
(** The next-smaller square grid, [(side-1)²] processors; an error on a
    1×1 grid (no survivors to compute with). *)

val survivor_procs : Topology.t -> Grid.t -> (int, string) result
(** Ranks surviving the loss of one whole node
    ([procs − procs_per_node]); an error when none survive. *)

val replan :
  Extents.t -> Search.request -> healthy:Plan.t -> (report, string) result
(** Re-plan a single-tree request after a crash, under the survivor law
    of its shape, with its own strategy and objective:

    - {!Search.Grid}: the survivor square of the healthy plan's grid,
      priced by the analytic characterization of the config's machine
      (a measured per-side characterization cannot be reused across grid
      sizes);
    - {!Search.Shapes}: every R × C factorization of the ranks left
      after losing one node — e.g. 12 ranks at 2 processors per node
      replan onto the best of 1×10/2×5/5×2/10×1. The report's
      [degraded_grid] is the chosen shape. *)

val pp_report : Format.formatter -> report -> unit
