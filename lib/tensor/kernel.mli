(** High-performance binary contraction kernel.

    Canonicalizes a contraction [C(out) += Σ A·B] by stride pattern:
    each joint dimension is classified purely by its strides across the
    three tensors, extent-1 dimensions are dropped, and adjacent
    dimensions that are jointly contiguous are coalesced. The output's
    innermost iterated dimension then picks one of two paths:
    - GEMM, when that dimension is carried by exactly one operand, or
      has no unit stride in the output's storage (dimensions both
      operands carry are then batch dimensions, walked outside the
      block). The blocks run in the BLIS loop order: NC column block,
      then KC summation strip, then MC row block. One C call per block
      packs B's strip panel into 2W-column micro-panels (on the strip's
      first row block only; the later row blocks reuse it), gathers the
      block's C cells, packs A into 4-row micro-panels, runs a 4 × 2W
      tile of W-lane vectors over them, with a 4 × W half tile on the
      first W columns of a narrower trailing panel, and scatters C
      back. One C body is built at W = 2 (SSE2/NEON, the baseline), and
      on x86-64 also at W = 4 (AVX2) and W = 8 (AVX-512F); the widest
      the CPU supports runs ({!tile_lanes}). Noncoalescible operand and
      output layouts are copy-packed and gathered through flat offset
      tables, amortized over the cache blocking.
    - the stride walk, when the output iterates no dimension (a full
      reduction), or that dimension is carried by both operands at unit
      stride in the output's storage: such a shape has no (M,N,K) form.
      The walk is also the oracle behind {!set_walk_oracle}.
    Every contraction a plan executes has an (M,N,K) form (the
    generalized Cannon template rejects the rest), so plans run on GEMM
    only. The walk is a known trade on the other shapes: elementwise
    products and full reductions run at 0.3–0.6 GFLOP/s on a 2-core
    AVX-512F Xeon, about twice the rate of the unrolled OCaml tiles it
    replaced, while C[m,x] = Σ_k A[m,k,x]·B[k,x] runs at about 0.6,
    a quarter of a packed tile's 2.1–2.5 and still about 30 times the
    frozen reference (DESIGN.md §15).

    Both paths add each cell's products in ascending summation order,
    each multiply and add rounded separately (the C tile is built with
    [-ffp-contract=off] and no FMA at any width), so results are
    bit-identical at every tile width, and to both the walk
    (on the same canonicalized dimensions) and earlier releases. A
    windowed call chooses its path and summation order on the strides
    its windows' block copies would have, so it is bit-identical to
    contracting those copies. Both paths perform zero per-element
    allocation (panels and offset tables are per-domain, grow-only
    scratch). The B panel lives in that scratch between the block calls
    of one contraction, so two systhreads of one domain must not run
    {!contract_acc} at the same time. *)

open! Import

val contract_acc :
  ?pin_out:(Index.t * int) list ->
  ?pin_a:(Index.t * int) list ->
  ?pin_b:(Index.t * int) list ->
  ?win_out:(Index.t * (int * int)) list ->
  ?win_a:(Index.t * (int * int)) list ->
  ?win_b:(Index.t * (int * int)) list ->
  into:Dense.t ->
  Dense.t ->
  Dense.t ->
  unit
(** [contract_acc ~into a b] accumulates (β = 1) the generalized
    contraction of [a] and [b] into [into]: for every coordinate of
    [into]'s labels, the product of [a] and [b] summed over their labels
    not appearing in [into]. [into] is mutated in place and must not
    share storage with [a] or [b] in any cell it writes.

    The [pin_*] arguments fix labels of the respective tensor at a given
    position: a pinned dimension is excluded from iteration and only
    shifts the tensor's base offset, which lets callers contract into or
    out of a slab of a larger tensor without slicing copies. The [win_*]
    arguments restrict labels to an [(offset, length)] window: a windowed
    dimension iterates [length] positions from [offset] in place, so a
    call reads and writes a rectangular sub-block of each tensor as if it
    were a {!Dense.block} copy, without the copy; cells outside [into]'s
    window are untouched. A label is pinned or windowed at most once.
    Raises [Tce_error.Error] on foreign or out-of-range pins and windows,
    on extent mismatches between shared labels (windowed labels by their
    window length), and on output labels absent from both operands — the
    checks {!Einsum.contract2_acc} makes, applied to what the call
    iterates. *)

(** {2 Probes} *)

type path =
  | Gemm  (** packed (M,N,K) blocking, C vector microkernel *)
  | Walk
      (** generic stride walk: shapes with no (M,N,K) form, and the
          oracle *)

val last_path : unit -> path
(** Which path the most recent {!contract_acc} took, on whichever
    domain ran it. For tests and benchmarks. *)

val blocking : unit -> int * int * int
(** The cache-blocking parameters [(KC, MC, NC)]: summation-strip depth,
    C-panel rows and C-panel columns per block. For bench artifacts. *)

val tile_lanes : unit -> int
(** The GEMM tile's vector width in doubles, 2, 4 or 8: the widest in
    {!supported_lanes} unless {!set_tile_lanes} narrowed it. *)

val supported_lanes : unit -> int list
(** The tile widths this host runs, ascending: [[2]], [[2; 4]] or
    [[2; 4; 8]]. Read once from the CPU at start-up: 4 needs AVX2 and 8
    needs AVX-512F on x86-64, each with the OS saving the wider
    registers. *)

(** {2 Knobs} *)

val set_walk_oracle : bool -> unit
(** Route subsequent contractions through the generic stride walk on the
    {e same} canonicalized dimension lists the GEMM path uses. GEMM
    reproduces the walk's accumulation order exactly, so GEMM ≡ walk
    {b bit-for-bit}; the property suite sweeps this. Global, not
    per-domain; for tests only. Default [false]. *)

val set_tile_lanes : int -> unit
(** Run subsequent GEMM blocks on the tile of [w] lanes, so tests and
    benchmarks can cover every width the host supports; nothing else
    selects the width. Every width gives the same bits. Global, not
    per-domain. Raises [Tce_error.Error] when [w] is not in
    {!supported_lanes}. *)
