(* Aliases for lower-layer libraries; opened by every module in this
   library. *)
module Ints = Tce_util.Ints
module Listx = Tce_util.Listx
module Tce_error = Tce_util.Tce_error
module Index = Tce_index.Index
module Extents = Tce_index.Extents
module Dense = Tce_tensor.Dense
module Einsum = Tce_tensor.Einsum
module Kernel = Tce_tensor.Kernel
module Aref = Tce_expr.Aref
module Grid = Tce_grid.Grid
module Dist = Tce_grid.Dist
module Contraction = Tce_cannon.Contraction
module Variant = Tce_cannon.Variant
module Schedule = Tce_cannon.Schedule
module Eqs = Tce_memmodel.Eqs
module Plan = Tce_core.Plan
module Obs = Tce_obs.Obs
