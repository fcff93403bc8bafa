(** TCE — a tensor-contraction engine with memory-constrained communication
    minimization.

    This is the umbrella module: it re-exports every subsystem under one
    namespace. Applications normally need only this library.

    {2 Expression layer}
    {!Index}, {!Extents}, {!Aref}, {!Formula}, {!Sequence}, {!Tree},
    {!Problem}, {!Parser} — the tensor-contraction language and its
    operator trees; {!Opmin} — operation minimization (optimal
    binarization of multi-factor products).

    {2 Data and reference execution}
    {!Dense}, {!Einsum} — labeled dense tensors and the contraction
    engine; {!Kernel} — the blocked, register-tiled contraction
    microkernel behind it (the frozen naive reference survives as
    [Einsum.contract2_ref]).

    {2 Parallel model}
    {!Grid}, {!Dist} — the R×C logical processor grid (√P×√P in the
    paper) and array distributions; {!Contraction}, {!Variant},
    {!Schedule} — the generalized Cannon algorithm and its block
    placement on any grid shape; {!Params}, {!Rcost} — the machine model
    and the empirically-characterized communication cost service;
    {!Eqs}, {!Memacct} — the paper's size/cost equations and memory
    accounting.

    {2 Optimization}
    {!Fusionset}, {!Memmin} — loop fusion and the sequential
    memory-minimal baseline; {!Search}, {!Plan}, {!Baselines} — the
    integrated memory-constrained communication minimization algorithm
    (the paper's contribution) and its prior-work baselines.

    {2 Execution and reporting}
    {!Loopnest}, {!Interp} — fused-code generation and interpretation;
    {!Cluster}, {!Simulate} — the discrete-event cluster simulator;
    {!Fusedexec} — distributed execution with the plan's fusion
    structure; {!Spmd}, {!Multicore} — real parallel execution on OCaml 5
    domains, the executor of unfused plans; {!Table}, {!Paperref}, {!Exptables} — experiment reports.

    {2 Observability}
    {!Obs} — structured tracing and metrics: wall-clock and
    simulated-clock spans, named counters, Chrome trace-event JSON and
    deterministic text exporters.

    {2 Fault tolerance}
    {!Tce_error} — the typed error surface; {!Fault} — the seeded,
    deterministic fault model (degraded links, stragglers, message loss,
    node crashes) consumed by the simulator; {!Degrade} — replanning on
    the surviving sub-grid after a crash.

    {2 Serving}
    {!Json}, {!Proto}, {!Plancache}, {!Server} — the fault-hardened planning
    daemon behind [bin/tce_serve]: JSON-lines protocol, bounded
    admission queue, LRU plan cache on the α-renamed content
    fingerprint, per-request deadlines with a degradation ladder, and
    worker crash isolation (DESIGN.md §13). *)

module Ints = Tce_util.Ints
module Tce_error = Tce_util.Tce_error
module Listx = Tce_util.Listx
module Interp_table = Tce_util.Interp
module Prng = Tce_util.Prng
module Units = Tce_util.Units
module Index = Tce_index.Index
module Extents = Tce_index.Extents
module Coords = Tce_tensor.Coords
module Dense = Tce_tensor.Dense
module Kernel = Tce_tensor.Kernel
module Einsum = Tce_tensor.Einsum
module Aref = Tce_expr.Aref
module Formula = Tce_expr.Formula
module Sequence = Tce_expr.Sequence
module Tree = Tce_expr.Tree
module Sumexpr = Tce_expr.Sumexpr
module Problem = Tce_expr.Problem
module Parser = Tce_expr.Parser
module Opmin = Tce_opmin.Opmin
module Obs = Tce_obs.Obs
module Grid = Tce_grid.Grid
module Dist = Tce_grid.Dist
module Params = Tce_netmodel.Params
module Rcost = Tce_netmodel.Rcost
module Topology = Tce_netmodel.Topology
module Overlap = Tce_netmodel.Overlap
module Eqs = Tce_memmodel.Eqs
module Memacct = Tce_memmodel.Memacct
module Contraction = Tce_cannon.Contraction
module Variant = Tce_cannon.Variant
module Schedule = Tce_cannon.Schedule
module Fusionset = Tce_fusion.Fusionset
module Memmin = Tce_fusion.Memmin
module Plan = Tce_core.Plan
module Search = Tce_core.Search
module Gencorpus = Tce_core.Gencorpus
module Degrade = Tce_core.Degrade
module Baselines = Tce_core.Baselines
module Loopnest = Tce_codegen.Loopnest
module Interp = Tce_codegen.Interp
module Fault = Tce_machine.Fault
module Cluster = Tce_machine.Cluster
module Simulate = Tce_machine.Simulate
module Fusedexec = Tce_machine.Fusedexec
module Spmd = Tce_runtime.Spmd
module Multicore = Tce_runtime.Multicore
module Json = Tce_server.Json
module Proto = Tce_server.Proto
module Plancache = Tce_server.Cache
module Server = Tce_server.Server
module Table = Tce_report.Table
module Paperref = Tce_report.Paperref
module Exptables = Tce_report.Exptables
module Parcode = Tce_report.Parcode
