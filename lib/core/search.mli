(** The memory-constrained communication minimization algorithm (paper
    §3.3) — the system's primary contribution.

    Bottom-up dynamic programming over the operator tree. At every
    contraction node it enumerates the generalized-Cannon variants
    (distribution triple × rotation choice), the fusion set on the edge to
    the parent, and the children's solution sets, subject to:

    - the chain legality of the fusion sets incident to the node;
    - the fused-communication rule: a loop fused around the node forces
      every {e rotated} array to be communicated inside it, so the loop
      index must be a dimension of that array and fused on its edge;
    - the paper's constraint (iii): a fused index must be distributed at
      both the producer and the consumer of the fused edge, or at neither;
    - redistribution of a consumed intermediate is possible only on an
      unfused edge (the whole array must exist to be reshuffled);
    - the per-node memory limit, accounting every array's resident block
      plus the largest message buffer.

    {2 Pruning and the deterministic tie-break}

    A node's {e candidates} are its legal (Cannon variant, left child
    case, right child case, parent-edge fusion) combinations within the
    memory limit (memory only grows upward, so an oversized partial
    solution can never recover). Each is first only priced — cost, node
    bytes, output rotations and group — and plan steps are built only
    for the candidates pruning keeps (DESIGN.md §12). Candidates are
    grouped by (production-distribution {e content}, fusion set) and
    pruned by Pareto dominance on (cost, node bytes) — the paper's
    "inferior solution" rule. Among candidates tied on cost and bytes,
    one survives under an explicit total tie-break:

    + fewer {e output} rotations, counted over the node's step and its
      children's (a rotated output ends displaced);
    + smaller {e oriented} production-distribution string (the pair order
      the group's content key deliberately erases);
    + enumeration order: a node lists its candidates newest first and the
      one listed first wins, so of two exact duplicates the one
      enumerated later survives.

    So a group's survivors are exactly its Pareto-minimal (cost, bytes)
    points, one survivor per point: the least candidate at that point
    under (output rotations, oriented string, enumeration order). The
    pruner relies on this characterization: it sorts each group by
    (cost, bytes, output rotations, oriented string, enumeration order)
    and keeps a candidate when its bytes are below those of every
    candidate before it — the same set the pairwise dominance rule
    keeps. The node's solution list, which its parent's enumeration
    order reads, is fixed by the candidates alone: the groups in a fixed
    order of their (content, fusion) keys, each group's survivors in the
    order they were enumerated.

    The same ordering, extended with the fused-set key and then the
    position in that list, is the total order used by the [?beam] cut.
    Because it never ties, search results are byte-for-byte
    deterministic.

    {2 Memoization}

    With [?memo] (the default) each solved subtree is cached under a key
    made of (a) the subtree's content fingerprint — structure, index
    lists and {e leaf} names, with intermediate names α-erased so two
    occurrences of the same subcomputation under different output names
    share their solutions — and (b) the fusion candidates of the edge to
    the parent (the only outside input to a subtree's solution set). On a
    hit the cached solutions are α-renamed back to the current subtree's
    intermediate names. Under [Fixed] fusion the intermediate names are
    part of the semantics (the assignment is keyed on them), so they stay
    in the fingerprint. Hits and misses are surfaced through the
    [search.memo_hits] / [search.memo_misses] {!Tce_obs.Obs} counters.

    The search is exhaustive over the remaining space: on small trees it
    provably returns the same optimum as brute-force enumeration (see the
    fuzz suite in [test/t_searchprop.ml]). *)

open! Import

type fusion_mode =
  | Enumerate  (** search all fusions (the paper's algorithm) *)
  | No_fusion  (** fusion-free: prior-work communication minimization [16] *)
  | Fixed of (string * Index.Set.t) list
      (** fusion fixed per array name (e.g. from the sequential
          memory-minimal baseline); unlisted edges get [∅] *)

type config = {
  grid : Grid.t;
  params : Params.t;
  rcost : Rcost.t;
  mem_limit_bytes : float option;
      (** [None]: use the machine's per-node memory *)
  redist_factor : float;
      (** redistribution ≈ [redist_factor ×] one full rotation of the
          block (default 2.0: an all-to-all is roughly two passes) *)
  fusion_mode : fusion_mode;
  allow_distributed_fusion : bool;
      (** allow fusing a loop whose index is distributed (the cost model's
          [N/√P] LoopRange branch). Off by default: such plans need
          partial-activity execution that the executors do not implement,
          the paper's solutions never use them, and enabling the branch
          changes no result in the reproduced experiments. *)
}

val default_config :
  ?mem_limit_bytes:float -> ?redist_factor:float -> ?fusion_mode:fusion_mode
  -> ?allow_distributed_fusion:bool -> grid:Grid.t -> params:Params.t
  -> rcost:Rcost.t -> unit -> config

(** {2 The planning request (DESIGN.md §12)}

    Every planning question is one {!request} value with four
    independent parts, served by one {!plan} entry point and checked by
    one {!brute_force} oracle:

    - {b problem}: a single operator {!Tree}, or a multi-term {!Sum}
      with cross-term CSE;
    - {b shape}: one fixed {!Grid} with its config, or an R × C
      {!Shapes} search on a {!Topology};
    - {b strategy}: {!Exact} DP, a {!Beam} cut, the {!Greedy} seed, or
      {!Anytime} refinement;
    - {b objective}: communication ({!Comm}), or memory first and
      communication second ({!Mem_first}, the prior-work baseline).

    The axes compose: a sum on a node-aware topology searches shapes
    for the whole sum, a greedy request over shapes takes the best
    greedy plan over every factorization, and so on. The paper's
    baselines are settings of the same search ({!Baselines.of_mode}). *)

type problem = Tree of Tree.t | Sum of Sumexpr.t

type shape =
  | Grid of config  (** one grid: the config's own grid and characterization *)
  | Shapes of { topo : Topology.t; procs : int; base : config }
      (** search every R × C factorization of [procs] (see below). Each
          candidate is solved under [base] with its [grid] and [rcost]
          replaced by the candidate and {!Rcost.of_topology} on [topo];
          [base]'s own grid and characterization are not used. *)

type strategy =
  | Exact  (** the optimal DP — paper Tables 1–2 replay bit-for-bit *)
  | Beam of int
      (** after pruning keep only the [k] best solutions per node under
          the documented total order. Exactness is no longer guaranteed
          (a locally worse partial solution can win globally), but a
          larger beam explores a superset per node. *)
  | Greedy
      (** the seed plan: a beam-1 DP that also caps each edge's fused
          sets at one index — the locally cheapest (variant, fusion,
          child-case) choice propagated bottom-up, in a small fraction of
          the exact search's time. A width-1 cut can strand the search,
          so on infeasibility the rungs widen (beam 1/cap 1 → 4/2 → 16 →
          exact). A sum's terms are planned without sharing. The plan
          passes {!Plan.validate}; only optimality is traded away. *)
  | Anytime
      (** the greedy seed (reported as width 1), then beam rounds of
          width 4, 16 and 64 over the full candidate space, then an exact
          round. The best plan so far under the objective is kept, so
          its rank never worsens and the final result is the exact
          optimum when the exact round completes. If the cancel token fires
          mid-round, the best plan found so far is returned instead of
          the deadline error (provided any round completed). *)

type objective =
  | Comm  (** minimize communication (the paper's objective) *)
  | Mem_first
      (** lexicographic (memory, communication): the parallel transplant
          of the sequential memory-minimal-fusion discipline. Fixing the
          {e sequential} memory-minimal fusion verbatim is usually not
          even executable under the Cannon template, which is itself
          part of the paper's argument for an integrated search. *)

type request = {
  problem : problem;
  shape : shape;
  strategy : strategy;
  objective : objective;
}

val request :
  ?strategy:strategy -> ?objective:objective -> shape -> problem -> request
(** Defaults: [Exact], [Comm]. *)

type outcome = Tree_plan of Plan.t | Sum_plan of Plan.sum

val tree_plan : outcome -> Plan.t
(** Raises [Invalid_argument] on a [Sum_plan]. *)

val sum_plan : outcome -> Plan.sum
(** Raises [Invalid_argument] on a [Tree_plan]. *)

type anytime_round = {
  width : int option;  (** beam width of the round; [None] = exact *)
  cost : float;
      (** communication cost of the best plan so far (monotone under
          [Comm]) *)
  improved : bool;  (** did this round improve on the previous best *)
}

(** The optional engine knobs of {!plan}:

    - [?memo] (default true): the α-renaming subtree cache above. Off, the
      engine is the original cache-free walk (the brute-force oracle always
      runs unmemoized).
    - [?max_groups] (default 3): the cap on a sum's CSE groups; 0
      disables sharing — the per-term-independent baseline.
    - [?cancel] (default absent): a cooperative cancellation token, polled
      at every DP node and before each per-variant enumeration block. When
      it returns [true] the search raises
      [Tce_error.Error (Deadline_exceeded _)] promptly instead of running
      to completion — the serving layer's per-request deadline hook.
    - [?on_round]: observes each completed {!Anytime} round.

    A request is one sequential DP on the calling domain; the memo table
    lives for one solve. Concurrency comes from the caller: the planning
    daemon runs one request per worker domain, and requests share no
    search state that reaches a plan.

    {b The candidate store.} A DP node prices its candidates into flat
    columns, and prunes and cuts them in scratch arrays beside them
    (DESIGN.md §12). That store is held per domain, not per request: each
    node resets it and prices into it, and it grows to the most rows a
    node prices, so a domain's later nodes and requests reuse its columns
    instead of regrowing them. A request keeps the store only when its
    own nodes filled more than half of it, that is, when a fresh store
    would have grown as large; otherwise the store was grown by an
    earlier, larger request and is dropped when the request ends. So
    between requests a domain holds at most the store its last request
    needed, and the store is freed with its domain. A request that finds
    its domain's store in use (a solve nested in another, or a second
    systhread of the domain) takes a fresh store for its own lifetime.
    Plans never depend on which store served them. *)

val check : request -> (unit, string) result
(** The rules a request must meet before any search, enforced by
    {!plan} and {!brute_force}: a [Beam] width is at least 1, and a
    {!Sum} takes only the full fusion space ([Enumerate] or [Fixed])
    and the [Comm] objective — the sum planner shares subtrees across
    the whole fusion space and ranks its sharing choices by
    communication. *)

val plan :
  ?memo:bool -> ?max_groups:int -> ?cancel:(unit -> bool)
  -> ?on_round:(anytime_round -> unit) -> Extents.t -> request
  -> (outcome, string) result
(** The plan the request asks for, or an error when the request fails
    {!check}, the problem is outside the Cannon template (Hadamard/unary
    nodes), a grid's characterization does not match it, or nothing fits
    in memory (for a shape search: on every shape). *)

val store_bytes : unit -> int
(** The bytes the calling domain's candidate store holds: its columns and
    scratch (0 before the domain's first search, and after a request
    that dropped it). *)

val brute_force : Extents.t -> request -> (outcome, string) result
(** Exhaustive enumeration of every (variant, fusion) assignment of the
    whole problem, with no dominance pruning and no memo cache, on the
    request's shape and objective (its strategy is ignored; a request
    failing {!check} is an error) — exponential; the test oracle for
    {!plan}. *)

val optimize :
  ?memo:bool -> ?beam:int -> ?cancel:(unit -> bool) -> config -> Extents.t
  -> Tree.t -> (Plan.t, string) result
(** {!plan} for one tree on one grid: [Exact], or [Beam k] with
    [~beam:k]. *)

val optimize_sum :
  ?memo:bool -> ?beam:int -> ?max_groups:int -> ?cancel:(unit -> bool)
  -> config -> Extents.t -> Sumexpr.t -> (Plan.sum, string) result
(** {!plan} for one sum on one grid: [Exact], or [Beam k] with
    [~beam:k]. *)

val solution_count :
  ?memo:bool -> ?beam:int -> config -> Extents.t -> Tree.t
  -> (int, string) result
(** Number of undominated solutions at the root (diagnostic: shows how
    effective pruning is). *)

val machine :
  ?fusion_mode:fusion_mode -> ?mem_gb:float -> ?mflops:float
  -> ?latency_us:float -> ?bandwidth_mbs:float -> ?nodes:int
  -> ?intra_latency_us:float -> ?intra_bandwidth_mbs:float
  -> topology:[ `Uniform | `Node ] -> procs:int -> unit
  -> (shape, string) result
(** The shape of a request from the front ends' machine description
    (the [tce_opt] flags and the daemon's work fields). The machine is
    the paper's Itanium cluster with [mem_gb] / [mflops] overrides, or —
    when [latency_us] or [bandwidth_mbs] is given — a uniform α–β
    machine. [`Uniform]: the square grid of [procs] (an error unless
    [procs] is a perfect square). [`Node]: a {!Shapes} search on a
    node-aware topology with [procs / nodes] ranks per node (default:
    the machine's own procs-per-node; [nodes] must divide [procs]) and
    the given intra-node link (defaults 1 µs, 1000 MB/s). [mem_gb] also
    becomes every config's [mem_limit_bytes]. A non-finite value, a
    [mflops], [mem_gb], [bandwidth_mbs] or [intra_bandwidth_mbs] ≤ 0, or
    a negative [latency_us] or [intra_latency_us] is an [Error] naming
    the field. *)

val base_config : shape -> config
(** The config carrying the shape's machine and search settings: a
    {!Grid}'s own, or a shape search's [base]. *)

(** {2 Topology-aware grid-shape selection (DESIGN.md §17)}

    On a node-aware {!Topology} the network is no longer symmetric in the
    grid axes: a rotation along an axis whose rings stay inside a node
    moves over the fast intra-node link. A {!Shapes} request enumerates
    every R × C factorization of the processor count (the rank → node
    mapping is the fixed row-major packing, so the shape fully determines
    which axes are node-aligned), solves each with a per-shape
    characterization, and keeps the cheapest plan ([Mem_first]: the
    smallest per-node memory first). Ties are broken deterministically:
    more node-aligned axes first, then the more nearly square shape, then
    fewer rows — so under a uniform topology a perfect-square [procs]
    picks the square grid unless a degenerate shape is {e strictly}
    cheaper (a 1 × P axis rotates for free, which can beat the square on
    skewed instances), and whenever the square is picked the plan is
    byte-identical to the fixed-grid request on that grid. The returned
    plan's grid carries the chosen shape. *)

val shape_candidates : procs:int -> Grid.t list
(** Every R × C grid with [R · C = procs], in increasing [R] order
    (includes the degenerate [1 × P] and [P × 1] shapes). *)

val intra_axis_count : Topology.t -> Grid.t -> int
(** How many of the grid's two axes rotate entirely inside nodes
    ({!Topology.axis_link}) — the tie-break's node-alignment measure. *)

(** {2 Multi-term sums with cross-term CSE (DESIGN.md §16)}

    A sum [O = Σᵢ cᵢ·Tᵢ] is planned in two phases: the cross-term shared
    subtrees found by {!Tce_expr.Sumexpr.detect} are materialized first,
    each by its own sub-plan; then every term is solved as an ordinary
    tree whose occurrences of a shared value are {e pinned} leaves,
    consumed under producer rules from the stored distribution
    (content-equal for free, otherwise through a costed redistribution)
    with the stored value charged resident. The optimizer enumerates
    every subset of the detected groups — sharing is not always a win:
    a stored shared value occupies memory for its whole lifetime and may
    force redistributions its consumers would not otherwise pay — and,
    per subset, the cartesian product of the shared subtrees' solution
    lists; term solutions are filtered by their lifetime memory (the
    term's own peak plus the residency of shared values still needed by
    later terms) and the cheapest feasible combination wins. Subset ∅ is
    the no-sharing baseline, so the result is never costlier than
    planning each term independently. The final accumulation is local
    and communication-free (every term plan ends in the sum output's
    index space).

    Determinism: the subset loop, the cartesian enumeration and the
    strictly-better-first tie-break are fixed, so the chosen sum plan is
    too. *)

val sum_fingerprint : Sumexpr.t -> string
(** Cache key material for a whole sum: the output index list plus, per
    term, its exact coefficient ([%h]) and the {e named} content
    fingerprint of its tree. Distinct by construction from every
    single-tree {!tree_fingerprint} (the ["sum|"] prefix), so a sum
    request and any one of its terms never share a cache entry. *)

(** {2 Content fingerprint and plan renaming}

    The serving layer's plan cache is keyed on the α-renamed content
    fingerprint below (plus the machine, grid, memory limit and search
    knobs). Because intermediate names are erased from the key, a cached
    plan may carry different intermediate names than the request that
    hits it; {!rename_plan} maps the cached plan onto the requested
    tree's names — the whole-plan analogue of the memo cache's α-renaming
    of subtree solutions. *)

val tree_fingerprint : config -> Tree.t -> string
(** The content fingerprint of the (normalized) operator tree: structure,
    index lists and leaf names, with intermediate names α-erased — except
    under [Fixed] fusion, where intermediate names are semantic and stay
    in. Two trees with equal fingerprints have identical solution spaces
    up to intermediate renaming. *)

val rename_plan :
  ext:Extents.t -> cached:Tree.t -> current:Tree.t -> Plan.t -> Plan.t option
(** [rename_plan ~ext ~cached ~current plan] rewrites [plan] (the
    solution of [cached]) onto [current]'s intermediate names and
    reassembles it on the plan's own grid and machine. The trees must
    share {!tree_fingerprint}. Returns
    [None] in the pathological leaf-name-clash case (the caller should
    recompute) — same fallback as the memo cache. When the trees already
    agree on names the plan is returned unchanged, physically equal. *)
