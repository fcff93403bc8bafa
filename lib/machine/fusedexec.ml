open! Import

type stats = {
  result : Dense.t;
  peak_words_per_proc : int;
  sliced_rotations : int;
}

(* A distributed (possibly fusion-reduced) array: one block per processor,
   at home placement (block (b1, b2) on processor (b1, b2)). *)
type slab = {
  alpha : Dist.t;
  stored : Index.t list;  (* dimensions that remain after fusion *)
  blocks : Dense.t array;  (* indexed by Grid.rank_of *)
}

let block_dims grid ext ~alpha ~stored ~z1 ~z2 =
  List.map
    (fun ix ->
      let extent = Extents.extent ext ix in
      match Dist.position_of alpha ix with
      | Some 1 -> (ix, Grid.myrange grid ~axis:1 ~extent ~coord:z1)
      | Some 2 -> (ix, Grid.myrange grid ~axis:2 ~extent ~coord:z2)
      | _ -> (ix, (0, extent)))
    stored

let make_slab grid ext ~alpha ~stored ~init =
  let blocks =
    Array.init (Grid.procs grid) (fun rank ->
        let z1, z2 = Grid.coord_of grid rank in
        let dims = block_dims grid ext ~alpha ~stored ~z1 ~z2 in
        init ~z1 ~z2 dims)
  in
  { alpha; stored; blocks }

let zero_slab grid ext ~alpha ~stored =
  make_slab grid ext ~alpha ~stored ~init:(fun ~z1:_ ~z2:_ dims ->
      Dense.create (List.map (fun (ix, (_, len)) -> (ix, len)) dims))

let scatter grid ext ~alpha full =
  let stored = Dense.labels full in
  make_slab grid ext ~alpha ~stored ~init:(fun ~z1:_ ~z2:_ dims ->
      Dense.block full dims)

let gather grid ext slab =
  let full =
    Dense.create
      (List.map (fun ix -> (ix, Extents.extent ext ix)) slab.stored)
  in
  Array.iteri
    (fun rank blk ->
      let z1, z2 = Grid.coord_of grid rank in
      let dims = block_dims grid ext ~alpha:slab.alpha ~stored:slab.stored ~z1 ~z2 in
      let offsets =
        List.filter_map
          (fun (ix, (off, _)) -> if off = 0 then None else Some (ix, off))
          dims
      in
      Dense.set_block full offsets blk)
    slab.blocks;
  full

let slab_words slab =
  Array.fold_left (fun acc b -> acc + Dense.size b) 0 slab.blocks

(* Iterate all assignments of the given indices (odometer over extents),
   in the given index order (outermost first). *)
let iter_assignments ext indices ~base f =
  let rec go assigned = function
    | [] -> f assigned
    | ix :: rest ->
      for v = 0 to Extents.extent ext ix - 1 do
        go (Index.Map.add ix v assigned) rest
      done
  in
  go base indices

(* Labels of [block] that the assignment binds, as kernel pins: the
   contraction then reads/writes the bound slab positions in place
   instead of slicing copies. *)
let pins_of assign block =
  List.filter_map
    (fun label ->
      Option.map (fun v -> (label, v)) (Index.Map.find_opt label assign))
    (Dense.labels block)

let fused_of_role (step : Plan.step) = function
  | Variant.Out -> step.fusion_out
  | Variant.Left -> step.fusion_left
  | Variant.Right -> step.fusion_right

let check_no_distributed_fusion (step : Plan.step) =
  List.iter
    (fun role ->
      let alpha = Variant.dist_of step.variant role in
      Index.Set.iter
        (fun t ->
          if Dist.distributes alpha t then
            Tce_error.failf
              "Fusedexec: fused index %s is distributed in %s's role — not \
               executable"
              (Index.name t)
              (Aref.name (Variant.aref_of step.variant role)))
        (Index.Set.union step.fusion_out
           (Index.Set.union step.fusion_left step.fusion_right)))
    [ Variant.Out; Variant.Left; Variant.Right ]

let run_plan grid ext (plan : Plan.t) ~inputs =
  if not (Grid.is_square grid) then
    Tce_error.failf
      "Fusedexec: the fused executor supports square grids only (got %dx%d); \
       run rectangular plans on Multicore"
      (Grid.rows grid) (Grid.cols grid);
  let side = Grid.side grid in
  let procs = Grid.procs grid in
  List.iter check_no_distributed_fusion plan.steps;
  let step_by_name = Hashtbl.create 8 in
  List.iter
    (fun (s : Plan.step) ->
      Hashtbl.replace step_by_name (Aref.name s.contraction.Contraction.out) s)
    plan.steps;
  let presummed = Hashtbl.create 4 in
  let input_of name =
    match Hashtbl.find_opt presummed name with
    | Some d -> d
    | None -> (
      match List.assoc_opt name inputs with
      | Some d -> d
      | None ->
        Tce_error.raise_err
          (Tce_error.Missing_tensor { where = "Fusedexec"; name }))
  in
  List.iter
    (fun (ps : Plan.presum) ->
      Hashtbl.replace presummed (Aref.name ps.out)
        (Einsum.sum_over (input_of (Aref.name ps.source)) ps.sum))
    plan.presums;
  (* Storage accounting: inputs stay resident in full; intermediate slabs
     are counted while alive. *)
  let alive = ref 0 and peak = ref 0 in
  let account w =
    alive := !alive + w;
    if !alive > !peak then peak := !alive
  in
  let release w = alive := !alive - w in
  List.iter
    (fun (s : Plan.step) ->
      List.iter
        (fun aref ->
          if not (Hashtbl.mem step_by_name (Aref.name aref)) then
            account (Dense.size (input_of (Aref.name aref))))
        [ s.contraction.Contraction.left; s.contraction.Contraction.right ])
    plan.steps;
  List.iter
    (fun (ps : Plan.presum) ->
      account (Dense.size (input_of (Aref.name ps.source))))
    plan.presums;
  let sliced_rotations = ref 0 in
  (* Last-slice cache per intermediate: the chain ordering of the fused
     loops guarantees a producer's slice is fully consumed before the next
     assignment is requested. *)
  let cache : (string, int Index.Map.t * slab) Hashtbl.t = Hashtbl.create 8 in

  let rec eval name sigma =
    match Hashtbl.find_opt cache name with
    | Some (a, s) when Index.Map.equal Int.equal a sigma -> s
    | prev ->
      (match prev with
      | Some (_, old) -> release (slab_words old)
      | None -> ());
      let s =
        if Obs.enabled () then begin
          Obs.count "fusedexec.slices";
          Obs.span ~cat:"fusedexec" ("slice:" ^ name) (fun () ->
              compute (Hashtbl.find step_by_name name) sigma)
        end
        else compute (Hashtbl.find step_by_name name) sigma
      in
      Hashtbl.replace cache name (sigma, s);
      s

  and compute (step : Plan.step) sigma =
    let variant = step.variant in
    let f_out = step.fusion_out in
    let extra =
      Index.Set.elements
        (Index.Set.diff
           (Index.Set.union step.fusion_left step.fusion_right)
           f_out)
    in
    (* Iterate indices shared by both operand edges outermost, so child
       slice requests change as slowly as possible (chain prefix order). *)
    let weight t =
      (if Index.Set.mem t step.fusion_left then 1 else 0)
      + if Index.Set.mem t step.fusion_right then 1 else 0
    in
    let extra =
      List.stable_sort (fun a b -> compare (weight b) (weight a)) extra
    in
    let out_aref = step.contraction.Contraction.out in
    let alpha_out = Variant.dist_of variant Variant.Out in
    let stored_out =
      List.filter
        (fun ix -> not (Index.Set.mem ix f_out))
        (Aref.indices out_aref)
    in
    let out_slab = zero_slab grid ext ~alpha:alpha_out ~stored:stored_out in
    account (slab_words out_slab);
    let sched = Schedule.make variant grid in
    iter_assignments ext extra ~base:sigma (fun assign ->
        (* Operand slabs for this iteration, at home placement in the
           role's distribution. *)
        let operand role =
          let aref = Variant.aref_of variant role in
          let name = Aref.name aref in
          let f_edge = fused_of_role step role in
          let alpha = Variant.dist_of variant role in
          if Hashtbl.mem step_by_name name then begin
            let child_sigma =
              Index.Map.filter (fun ix _ -> Index.Set.mem ix f_edge) assign
            in
            let s = eval name child_sigma in
            if Dist.equal s.alpha alpha then s
            else begin
              (* Producer and consumer agree on content (the search only
                 plans free consumption for equal content) but may differ
                 in pair orientation, or a planned redistribution changes
                 the content; either way reshuffle the blocks. *)
              let s' = scatter grid ext ~alpha (gather grid ext s) in
              s'
            end
          end
          else begin
            (* Leaf: slice the resident input at the edge's fused indices,
               then split by the role distribution (a view, not counted as
               extra storage). *)
            let sliced =
              Index.Set.fold
                (fun ix acc -> Dense.slice acc ix (Index.Map.find ix assign))
                f_edge (input_of name)
            in
            scatter grid ext ~alpha sliced
          end
        in
        let left_slab = operand Variant.Left in
        let right_slab = operand Variant.Right in
        (* Position working blocks at the schedule's step-0 placement. *)
        let position slab role =
          Array.init procs (fun rank ->
              let z1, z2 = Grid.coord_of grid rank in
              let b1, b2 = Schedule.block_at sched role ~step:0 ~z1 ~z2 in
              slab.blocks.(Grid.rank_of grid (b1, b2)))
        in
        let w_left = position left_slab Variant.Left in
        let w_right = position right_slab Variant.Right in
        let w_out = position out_slab Variant.Out in
        let working = function
          | Variant.Left -> w_left
          | Variant.Right -> w_right
          | Variant.Out -> w_out
        in
        let shift role ~axis =
          let arr = working role in
          let moved =
            Array.init procs (fun rank ->
                let coord = Grid.coord_of grid rank in
                arr.(Grid.rank_of grid (Grid.shift grid coord ~axis ~by:1)))
          in
          Array.blit moved 0 arr 0 procs
        in
        let multiply () =
          (* Accumulate each rank's product directly into the bound slab
             positions of its out block: labels fixed by the assignment
             are pinned, so no operand slices, no delta tensor and no
             per-step output allocation. *)
          for rank = 0 to procs - 1 do
            let out_blk = w_out.(rank) in
            let l = w_left.(rank) and r = w_right.(rank) in
            Kernel.contract_acc ~pin_out:(pins_of assign out_blk)
              ~pin_a:(pins_of assign l) ~pin_b:(pins_of assign r)
              ~into:out_blk l r
          done
        in
        multiply ();
        for _round = 1 to side - 1 do
          List.iter (fun (role, axis) -> shift role ~axis) (Variant.rotated variant);
          multiply ()
        done;
        let nrot = List.length (Variant.rotated variant) in
        sliced_rotations := !sliced_rotations + nrot;
        if Obs.enabled () then
          Obs.count ~by:nrot "fusedexec.sliced_rotations")
  ;
    out_slab
  in
  let root =
    Aref.name
      (match List.rev plan.steps with
      | last :: _ -> last.contraction.Contraction.out
      | [] -> Tce_error.failf "Fusedexec: plan has no steps")
  in
  let slab = eval root Index.Map.empty in
  let result = gather grid ext slab in
  {
    result;
    peak_words_per_proc = Ints.ceil_div !peak procs;
    sliced_rotations = !sliced_rotations;
  }
