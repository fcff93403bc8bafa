(** Seeded problem generators for the search engine.

    The paper's own expressions (CCSD, the running example) solve in a
    few to tens of milliseconds — too small to measure the DP, and too
    small for an anytime mode to matter. This module generates
    classic matrix chains (the shape every einsum planner is benchmarked
    on) and random well-formed einsum trees in the style of omeco /
    opt_einsum's random test corpora, the larger of which take the exact
    DP hundreds of milliseconds. Everything is driven by an
    explicit seed through {!Tce_util.Prng}, so every instance is
    reproducible byte for byte — the determinism suite re-solves the
    same instance with and without the memo cache and diffs the plans.

    Generated trees always satisfy [Tree.validate] and the contraction
    well-formedness rules ([Formula.check_contract]) at every node: sum
    indices are fresh and shared by both children, output indices land
    in exactly one child, and no node exceeds the requested rank. *)

open! Import

type instance = { name : string; ext : Extents.t; tree : Tree.t }

val matrix_chain :
  seed:int -> n:int -> lo:int -> hi:int -> Extents.t * Tree.t
(** A left-deep product of [n >= 2] matrices [M1 … Mn] with fresh
    boundary indices, extents uniform in [lo, hi]. Raises
    [Tce_error.Error] on [n < 2]. *)

val random_einsum :
  seed:int -> tensors:int -> rank:int -> lo:int -> hi:int
  -> Extents.t * Tree.t
(** A random contraction tree over [tensors >= 2] leaves in which no
    array exceeds [rank >= 2] dimensions; extents uniform in [lo, hi].
    Raises [Tce_error.Error] on out-of-range arguments. *)

val bench_corpus : unit -> instance list
(** The fixed corpus the [search] bench section measures. The
    sequential exact DP takes 0.64 ms on chain-16, 0.36 s on
    einsum-7t-r7 and 0.53 s on einsum-8t-r7 (BENCH_search.json, one
    run each on a 2-core Xeon host). *)

val fuzz : seed:int -> count:int -> instance list
(** Small random instances (3–4 tensors, tiny extents) for property
    tests that need brute force to stay feasible. *)

(** {2 Multi-term sums with planted cross-term sharing} *)

type sum_instance = { sname : string; sext : Extents.t; sum : Sumexpr.t }

val random_sum :
  ?permute:bool -> ?shared:bool -> ?double:bool -> seed:int -> terms:int
  -> lo:int -> hi:int -> unit -> Extents.t * Sumexpr.t
(** A [terms >= 2]-term sum [E\[o1,o2\] = Σᵢ cᵢ · (Σₓ C(aᵢ,x)·Rᵢ\[x,bᵢ\])]
    whose inner factor [C(a,x) = Σ_c P\[a,c\]·Q\[c,x\]] is a planted
    shared subtree (identical leaves across terms). [?permute] (default
    true) swaps the output roles on odd terms — the permuted-repeat
    pattern [s_a·t_b + s_b·t_a], matched because the two output extents
    are generated equal. [?shared:false] makes the inner leaves
    term-private: no common subtree, the zero-CSE baseline family.
    [?double] (default false) replaces the private right factor with a
    second planted shared subtree [D(x,b) = Σ_d U\[x,d\]·V\[d,b\]] — two
    CSE groups. Extents are uniform in [lo, hi] (the two output extents
    equal). Raises [Tce_error.Error] on [terms < 2]. *)

val sum_fuzz : seed:int -> count:int -> sum_instance list
(** Small random sum instances (terms, permutation, sharing family and
    extents all seeded) for the sum-level oracle and property suites —
    sized so {!Tce_core.Search.brute_force} stays feasible on them. *)

val sum_bench_corpus : unit -> sum_instance list
(** The fixed corpus the [sums] bench section measures: planted sharing
    at extents where the amortized shared intermediate visibly beats
    per-term-independent planning. *)
