open! Import

type t = {
  variant : Variant.t;
  grid : Grid.t;
  fine_axis : int;
  nfine : int;
  ncoarse : int;
  (* Fine chunks per coarse chunk; 0 when coarse does not divide fine. *)
  m : int;
  steps : int;
  fine_role : Variant.role;
  coarse_role : Variant.role;
}

let make variant grid =
  let rows = Grid.rows grid and cols = Grid.cols grid in
  let fine_axis = if rows >= cols then 1 else 2 in
  let nfine = max rows cols and ncoarse = min rows cols in
  let m = if nfine mod ncoarse = 0 then nfine / ncoarse else 0 in
  let fine_role, coarse_role =
    match Variant.rotated variant with
    | [ (r1, a1); (r2, _) ] -> if a1 = fine_axis then (r1, r2) else (r2, r1)
    | _ -> assert false
  in
  {
    variant;
    grid;
    fine_axis;
    nfine;
    ncoarse;
    m;
    steps = (if m > 0 then nfine else ncoarse * nfine);
    fine_role;
    coarse_role;
  }

let steps t = t.steps

let check t ~step ~z1 ~z2 =
  if step < 0 || step >= t.steps then invalid_arg "Schedule: bad step";
  if z1 < 0 || z1 >= Grid.rows t.grid || z2 < 0 || z2 >= Grid.cols t.grid
  then invalid_arg "Schedule: processor out of range"

(* The processor's coordinates along the fine and the coarse axis. *)
let fine_coarse t ~z1 ~z2 = if t.fine_axis = 1 then (z1, z2) else (z2, z1)

(* ω chunks held by the fine and the coarse rotated role at [step], for
   the rank at fine/coarse-axis coordinates [zf]/[zc]. *)
let chunks t ~zf ~zc ~step =
  if t.m > 0 then
    let qf = (zf + (t.m * zc) + step) mod t.nfine in
    (qf, qf / t.m)
  else ((zf + step) mod t.nfine, (zc + (step / t.nfine)) mod t.ncoarse)

let block_at t role ~step ~z1 ~z2 =
  check t ~step ~z1 ~z2;
  let fine = Variant.role_equal role t.fine_role in
  if fine || Variant.role_equal role t.coarse_role then begin
    let zf, zc = fine_coarse t ~z1 ~z2 in
    let qf, qc = chunks t ~zf ~zc ~step in
    let axis = if fine then t.fine_axis else 3 - t.fine_axis in
    let q = if fine then qf else qc in
    if axis = 1 then (q, z2) else (z1, q)
  end
  else (z1, z2)

let shifts_after t ~step ~z1 ~z2 =
  check t ~step ~z1 ~z2;
  if step = t.steps - 1 then []
  else begin
    let zf, _ = fine_coarse t ~z1 ~z2 in
    (* A per-ring condition: both partners of a coarse-axis exchange
       share their fine-axis coordinate. *)
    let coarse_moves =
      if t.m > 0 then (zf + step + 1) mod t.m = 0
      else (step + 1) mod t.nfine = 0
    in
    List.filter
      (fun (_, axis) -> Grid.axis_len t.grid ~axis > 1)
      ((t.fine_role, t.fine_axis)
      :: (if coarse_moves then [ (t.coarse_role, 3 - t.fine_axis) ] else []))
  end

let block_ranges t ext role ~dims ~step ~z1 ~z2 =
  let b1, b2 = block_at t role ~step ~z1 ~z2 in
  let alpha = Variant.dist_of t.variant role in
  List.map
    (fun i ->
      let extent = Extents.extent ext i in
      match Dist.position_of alpha i with
      | Some 1 -> (i, Grid.myrange t.grid ~axis:1 ~extent ~coord:b1)
      | Some 2 -> (i, Grid.myrange t.grid ~axis:2 ~extent ~coord:b2)
      | _ -> (i, (0, extent)))
    dims

let omega_range t ext role ~step ~z1 ~z2 =
  match Variant.axis_of t.variant role with
  | None -> invalid_arg "Schedule.omega_range: the fixed role holds no ω"
  | Some axis ->
    let b1, b2 = block_at t role ~step ~z1 ~z2 in
    Grid.myrange t.grid ~axis
      ~extent:(Extents.extent ext (Variant.rot_index t.variant))
      ~coord:(if axis = 1 then b1 else b2)

let window t ext ~step ~z1 ~z2 =
  let off_f, len_f = omega_range t ext t.fine_role ~step ~z1 ~z2 in
  let off_c, len_c = omega_range t ext t.coarse_role ~step ~z1 ~z2 in
  let lo = max off_f off_c and hi = min (off_f + len_f) (off_c + len_c) in
  if hi > lo then Some (lo, hi - lo) else None
