(* Aliases for lower-layer libraries; opened by every module in this
   library. *)
module Listx = Tce_util.Listx
module Units = Tce_util.Units
module Prng = Tce_util.Prng
module Tce_error = Tce_util.Tce_error
module Index = Tce_index.Index
module Extents = Tce_index.Extents
module Aref = Tce_expr.Aref
module Tree = Tce_expr.Tree
module Grid = Tce_grid.Grid
module Dist = Tce_grid.Dist
module Params = Tce_netmodel.Params
module Rcost = Tce_netmodel.Rcost
module Topology = Tce_netmodel.Topology
module Overlap = Tce_netmodel.Overlap
module Eqs = Tce_memmodel.Eqs
module Contraction = Tce_cannon.Contraction
module Variant = Tce_cannon.Variant
module Schedule = Tce_cannon.Schedule
module Plan = Tce_core.Plan
module Obs = Tce_obs.Obs
