(** Executing optimized plans on the simulated cluster (timing).

    Walks a plan step by step, issuing every fused-loop iteration of every
    rotation as [side] synchronized shift rounds with the actual per-slice
    message sizes, plus the local computation. This is the "measured"
    column of the experiment reports: the optimizer predicts with the
    analytic equations, the simulator replays the schedule event by event,
    and the two must agree (exactly, for extents the grid divides).

    With a {!Fault} model attached, the replay degrades accordingly —
    slower links, stragglers, retry delays — and a node-crash event stops
    the run with [Error (Node_crashed _)], leaving the partial fault
    trace readable through [Fault.trace]. *)

open! Import

type timing = {
  comm_seconds : float;
  compute_seconds : float;
  total_seconds : float;
  overlapped_seconds : float;
      (** elapsed time under the requested {!Overlap} law: per step,
          [max(comm, compute) + factor·min(comm, compute)]. Equal to
          [comm_seconds + compute_seconds] under the default
          [Overlap.none]. *)
}

val run_plan :
  ?faults:Fault.t -> ?topo:Topology.t -> ?overlap:Overlap.t
  -> ?cancel:(unit -> bool) -> Params.t -> Extents.t -> Plan.t
  -> (timing, Tce_error.t) result
(** Simulate the whole plan. Each shift round is priced by the link
    class of its axis on [?topo] (the topology the plan was searched on),
    as the node-aware cost model prices it; the default uniform topology
    of [params] prices every round at [Params.step_time] — the paper's
    flat replay.
    [Error (Runaway_rounds _)] if a fused loop nest implies more than
    [10^7] communication rounds (a runaway plan no real run would
    attempt either); [Error (Node_crashed _)] when the
    fault model kills a node mid-run. [?overlap] (default [Overlap.none],
    the paper's serialized law) only affects [overlapped_seconds]: the
    replayed clocks themselves stay strictly shift-then-multiply, so the
    Tables 1–2 reproduction is untouched. [?cancel] (default absent) is a
    cooperative cancellation token, polled with the crash check once per
    shift round, redistribution, presum and step: once it returns [true]
    the replay stops with [Error (Deadline_exceeded _)]. *)

val run_plan_exn :
  ?faults:Fault.t -> ?overlap:Overlap.t -> Params.t -> Extents.t -> Plan.t
  -> timing
(** Like {!run_plan} but raises [Tce_error.Error]: for callers with no
    degradation story (benchmarks, quick scripts). *)

val measure_rotation : Params.t -> Grid.t -> axis:int -> words:int -> float
(** Time one full Cannon rotation of blocks of the given size on the
    simulated (healthy) machine: the measurement primitive behind the
    characterization pipeline ([Rcost.characterize]). *)

val pp_timing : Format.formatter -> timing -> unit
