(** Numeric execution of plans {e with their fusion structure}.

    Where [Multicore] runs the Cannon schedules with fully materialized
    intermediates, this executor runs the plan the way the generated
    parallel code would: fusion-reduced intermediates are stored slice-wise
    per processor, every fused loop iteration performs its own (sliced)
    Cannon rotation, and steps interleave inside the fused loops exactly as
    the cost model charges them (MsgFactor sliced rotations). The output is
    checked against the naive reference in the test suite, and the
    executor's peak per-processor footprint is reported so it can be
    compared against the optimizer's memory accounting.

    Restrictions (checked, with a clear error): every fused index must be
    undistributed in the roles that carry it — the optimizer's legality
    rules never produce distributed fused indices because the variant
    distributions are drawn from the (i,j,k) triple, which a fused index
    cannot join. Run at validation extents. *)

open! Import

type stats = {
  result : Dense.t;  (** the gathered output *)
  peak_words_per_proc : int;
      (** high-water mark of distributed block storage per processor
          (slabs only; transient gather buffers excluded) *)
  sliced_rotations : int;
      (** number of (sliced) full rotations executed — equals the sum of
          the plan's message factors over rotated roles *)
}

val run_plan :
  Grid.t -> Extents.t -> Plan.t -> inputs:(string * Dense.t) list -> stats
(** Execute the plan with reduced storage. Raises [Tce_error.Error] on
    the documented restrictions ([Msg]) or missing inputs
    ([Missing_tensor]). *)
