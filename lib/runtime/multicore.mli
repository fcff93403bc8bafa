(** Multicore execution of plans: real parallel Cannon on OCaml 5 domains.

    Each grid processor is a domain; blocks move between domains through
    the {!Spmd} mailboxes exactly along the {!Schedule}'s shift pattern,
    on square and R × C grids alike. This demonstrates that the
    optimizer's plans are not just costed but executable SPMD programs,
    and it is the one numeric executor of plans, fused or not, at
    validation extents (every distributed extent at least its grid axis
    length). Use modest grids (up to 16 domains).

    The engine is one body (DESIGN.md §10): Cannon steps are serialized
    (exchange, then multiply, as the paper's cost model charges them), a
    block is a window on one of the caller's tensors rather than a copy
    of its cells, ranks accumulate lock-free straight into the result
    through the disjoint output windows they hold at each step, so there
    is no gather, and every contraction of a plan runs on one persistent
    {!Spmd.Pool} team. Ranks only read the operands.

    A plan runs with its fusion. A step iterates its forcing fused loops
    — the fusion with its parent and with its stored operands
    (intermediates, or presummed inputs kept reduced) — and runs its
    schedule once per iteration with the loop values pinned: these are
    the sliced rotations the cost model charges as MsgFactor.
    Intermediates are stored fusion-reduced, one slice at a time, and
    dropped after their last use. A leaf's own fusion only streams its
    communication, so it adds no loop. Plans outside the search's fusion
    rules are refused with [Tce_error.Error] before any step runs: a
    fused index that a distribution splits, or a fused loop that does
    not slice a rotated array of its step.

    Crash safety comes from the {!Spmd} layer: a domain that raises
    poisons the team, every peer unwinds, and the call fails with
    [Spmd.Spmd_aborted] instead of hanging; a pooled team survives the
    abort ready for the next step.
    Missing inputs are reported as [Tce_error.Error (Missing_tensor _)]
    before any step runs. *)

open! Import

type block
(** What a rank holds and shifts: a window, per label [(offset, length)],
    of an operand or of the result — the {!Spmd.Pool} message type. *)

val run_contraction :
  ?pool:block Spmd.Pool.t -> Grid.t -> Extents.t -> Variant.t
  -> left:Dense.t -> right:Dense.t -> Dense.t
(** One contraction, one domain per processor. The operand tensors are
    full (undistributed) and only read; the result is the full output,
    which the ranks fill in place. [?pool] reuses a persistent team (its
    size must match the grid; [Tce_error.Error] otherwise); without it a
    team is made for the call and closed after it. An extent below its
    grid axis length is a [Tce_error.Error]. *)

type stats = {
  result : Dense.t;  (** the plan's output *)
  peak_words_per_proc : int;
      (** the high-water mark, over the run and over ranks, of the words
          in the home windows a rank holds of every live array: inputs
          under the distribution of the role consuming them,
          intermediates (fusion-reduced) under their producer's. Message
          buffers are not counted: blocks are windows, not copies. *)
  sliced_rotations : int;
      (** rotations executed, each streamed slice counted: the sum of
          the model's MsgFactor over every step's rotated roles *)
}

val run_plan_stats :
  ?pool:block Spmd.Pool.t -> ?on_free:(string -> unit) -> Grid.t
  -> Extents.t -> Plan.t -> inputs:(string * Dense.t) list -> stats
(** Execute the plan, with its fusion, on one persistent {!Spmd.Pool}
    team: [?pool] when given (not closed by this call), else a team
    created for the call. Each intermediate is dropped after its last
    use, honouring the memory discipline the plan was optimized under;
    [?on_free] observes each dropped name (for tests and tracing). The
    final output is never dropped. *)

val run_plan :
  ?pool:block Spmd.Pool.t -> ?on_free:(string -> unit) -> Grid.t
  -> Extents.t -> Plan.t -> inputs:(string * Dense.t) list -> Dense.t
(** {!run_plan_stats}'s [result]. *)
