(** Multicore execution of plans: real parallel Cannon on OCaml 5 domains.

    Each grid processor is a domain; blocks move between domains through
    the {!Spmd} mailboxes exactly along the {!Schedule}'s shift pattern,
    on square and R × C grids alike. This demonstrates that the
    optimizer's plans are not just costed but executable SPMD programs,
    and is the numeric executor of unfused plans: values are insensitive
    to fusion, so plans run with full intermediates at validation extents
    (every distributed extent at least its grid axis length). Use modest
    grids (up to 16 domains).

    The engine is one body (DESIGN.md §10): Cannon steps are serialized
    (exchange, then multiply, as the paper's cost model charges them), a
    block is a window on one of the caller's tensors rather than a copy
    of its cells, ranks accumulate lock-free straight into the result
    through the disjoint output windows they hold at each step, so there
    is no gather, {!run_plan} runs every step on one persistent
    {!Spmd.Pool} team, and intermediates are dropped after their last
    use. Ranks only read the operands.

    Crash safety comes from the {!Spmd} layer: a domain that raises (or a
    receive that exceeds [?recv_timeout_s]) poisons the team, every peer
    unwinds, and the call fails with [Spmd.Spmd_aborted] instead of
    hanging; a pooled team survives the abort ready for the next step.
    Missing inputs are reported as [Tce_error.Error (Missing_tensor _)]. *)

open! Import

type block
(** What a rank holds and shifts: a window, per label [(offset, length)],
    of an operand or of the result — the {!Spmd.Pool} message type. *)

val run_contraction :
  ?pool:block Spmd.Pool.t -> ?recv_timeout_s:float -> Grid.t -> Extents.t
  -> Variant.t -> left:Dense.t -> right:Dense.t -> Dense.t
(** One contraction, one domain per processor. The operand tensors are
    full (undistributed) and only read; the result is the full output,
    which the ranks fill in place. [?pool]
    reuses a persistent team (its size must match the grid;
    [Tce_error.Error] otherwise) instead of spawning domains for the
    call. [?recv_timeout_s] bounds every block receive; on expiry the run
    aborts with [Spmd.Spmd_aborted] wrapping a [Spmd.Recv_timeout]. An
    extent below its grid axis length is a [Tce_error.Error]. *)

val run_plan :
  ?pool:block Spmd.Pool.t -> ?recv_timeout_s:float
  -> ?on_free:(string -> unit) -> Grid.t -> Extents.t -> Plan.t
  -> inputs:(string * Dense.t) list -> Dense.t
(** Execute every step of the plan on one persistent {!Spmd.Pool} team:
    [?pool] when given (not closed by this call), else a team created
    for the call. Each environment entry is dropped after its last
    consuming step, honouring the memory discipline the plan was
    optimized under; [?on_free] observes each dropped name (for tests
    and tracing). The final output is never dropped. *)
