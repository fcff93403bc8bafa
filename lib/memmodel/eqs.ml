open! Import

(* Distribution position 1 divides by [rows], position 2 by [cols]. *)

let dist_range_rect ext ~rows ~cols ~alpha ~fused i =
  if Index.Set.mem i fused then 1
  else
    match Dist.position_of alpha i with
    | Some 1 -> Ints.ceil_div (Extents.extent ext i) rows
    | Some 2 -> Ints.ceil_div (Extents.extent ext i) cols
    | _ -> Extents.extent ext i

let dist_size_rect ext ~rows ~cols ~alpha ~fused ~dims =
  List.fold_left
    (fun acc i -> acc * dist_range_rect ext ~rows ~cols ~alpha ~fused i)
    1 dims

let loop_range_rect ext ~rows ~cols ~alpha ~fused j =
  if not (Index.Set.mem j fused) then 1
  else
    match Dist.position_of alpha j with
    | Some 1 -> Ints.ceil_div (Extents.extent ext j) rows
    | Some 2 -> Ints.ceil_div (Extents.extent ext j) cols
    | _ -> Extents.extent ext j

let msg_factor_rect ext ~rows ~cols ~alpha ~fused ~dims =
  List.fold_left
    (fun acc j -> acc * loop_range_rect ext ~rows ~cols ~alpha ~fused j)
    1 dims

let rotate_cost_rect ~rcost ext ~alpha ~fused ~dims ~axis =
  let rows = Rcost.rows rcost and cols = Rcost.cols rcost in
  let words = dist_size_rect ext ~rows ~cols ~alpha ~fused ~dims in
  let factor = msg_factor_rect ext ~rows ~cols ~alpha ~fused ~dims in
  float_of_int factor *. Rcost.query rcost ~axis ~words

let full_words ext ~dims = Extents.size_of ext dims
