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

(* Per dimension: its bit in the fusion masks and its unfused DistRange,
   which is also its LoopRange when fused. *)
type masked = { bit : int array; range : int array }

let masked ext ~rows ~cols ~alpha ~universe ~dims =
  let bit i =
    let rec go k = function
      | [] -> 0
      | u :: rest -> if Index.equal u i then 1 lsl k else go (k + 1) rest
    in
    go 0 universe
  in
  {
    bit = Array.of_list (List.map bit dims);
    range =
      Array.of_list
        (List.map
           (dist_range_rect ext ~rows ~cols ~alpha ~fused:Index.Set.empty)
           dims);
  }

(* The product of the ranges of the dimensions whose bit is [fused] in
   [mask]. *)
let masked_product m ~fused mask =
  let acc = ref 1 in
  for d = 0 to Array.length m.bit - 1 do
    if (m.bit.(d) land mask <> 0) = fused then acc := !acc * m.range.(d)
  done;
  !acc

let masked_size m mask = masked_product m ~fused:false mask

(* MsgFactor (the fused dimensions' product) times RCost of DistSize. *)
let masked_rotate_cost ~rcost m ~axis mask =
  float_of_int (masked_product m ~fused:true mask)
  *. Rcost.query rcost ~axis ~words:(masked_size m mask)
