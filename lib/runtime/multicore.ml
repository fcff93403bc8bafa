open! Import

type stats = {
  result : Dense.t;
  peak_words_per_proc : int;
  sliced_rotations : int;
}

let check_extents grid ext variant =
  List.iter
    (fun role ->
      let alpha = Variant.dist_of variant role in
      List.iter
        (fun i ->
          let n =
            match Dist.position_of alpha i with
            | Some p -> Grid.axis_len grid ~axis:p
            | None -> 1
          in
          if Extents.extent ext i < n then
            Tce_error.failf
              "Multicore: extent of distributed index %s (%d) is below the \
               grid axis length %d"
              (Index.name i) (Extents.extent ext i) n)
        (Dist.indices (Variant.dist_of variant role)))
    [ Variant.Out; Variant.Left; Variant.Right ]

let check_pool grid = function
  | Some pool when Spmd.Pool.procs pool <> Grid.procs grid ->
    Tce_error.failf
      "Multicore: pool of %d domains cannot run a grid of %d processors"
      (Spmd.Pool.procs pool) (Grid.procs grid)
  | _ -> ()

(* The caller's team, or one made for the call. *)
let with_team ?pool grid f =
  match pool with
  | Some pool -> f pool
  | None -> Spmd.with_pool ~procs:(Grid.procs grid) f

(* A block a rank holds: a window, per label [(offset, length)], of one
   of the call's tensors — an operand, or the result it accumulates
   into. Ranks read and write blocks in place, and a shift sends the
   window, not its cells. *)
type block = { tensor : Dense.t; win : (Index.t * (int * int)) list }

(* Ranks accumulate straight into the result without a lock, so the
   output windows held at any one step must not overlap. They do not —
   the schedule's placement at a step is a permutation of blocks — but
   that is a property of [Schedule], not of this writer, so debug builds
   re-check it: two windows are disjoint iff some dimension's
   (offset, length) ranges do not intersect. *)
let windows_disjoint windows =
  let overlap (o1, l1) (o2, l2) = o1 < o2 + l2 && o2 < o1 + l1 in
  let n = Array.length windows in
  let ok = ref true in
  for r = 0 to n - 1 do
    for s = r + 1 to n - 1 do
      if
        List.for_all2
          (fun (_, x) (_, y) -> overlap x y)
          windows.(r) windows.(s)
      then ok := false
    done
  done;
  !ok

(* A variant's schedule, checked once per contraction however many
   fused iterations then run it. *)
let prepare grid ext variant =
  check_extents grid ext variant;
  if Obs.enabled () then
    for r = 0 to Grid.procs grid - 1 do
      Obs.set_thread_name ~pid:Obs.wall_pid ~tid:r
        (Printf.sprintf "rank %d" r)
    done;
  let sched = Schedule.make variant grid in
  let out_dims = Aref.indices (Variant.aref_of variant Variant.Out) in
  assert (
    List.for_all
      (fun step ->
        windows_disjoint
          (Array.init (Grid.procs grid) (fun r ->
               let z1, z2 = Grid.coord_of grid r in
               Schedule.block_ranges sched ext Variant.Out ~dims:out_dims ~step
                 ~z1 ~z2)))
      (List.init (Schedule.steps sched) Fun.id));
  sched

(* Generalized Cannon on domains (DESIGN.md §17), one body for every
   grid shape: [Schedule] says which block each rank holds at step 0,
   which roles it exchanges after each step and the ω window it
   multiplies over; this function only moves windows and multiplies.
   Each step multiplies over the window, so every logical contribution
   is computed exactly once; when a rotated output block's ω range
   strictly contains the window, the product lands in a temporary and
   accumulates at the window's offset. Steps are serialized: multiply,
   then exchange. Labels that [assign] binds — the values of the
   enclosing fused loops, never distributed — are pinned in every tensor
   that carries them, so one pass reads and writes one slab of each. *)
let cannon ~pool grid ext variant sched ~assign ~left ~right ~into =
  if Obs.enabled () then Obs.count "multicore.contractions";
  let steps = Schedule.steps sched in
  let omega = Variant.rot_index variant in
  let pins t =
    List.filter_map
      (fun l -> Option.map (fun v -> (l, v)) (Index.Map.find_opt l assign))
      (Dense.labels t)
  in
  let pin_a = pins left and pin_b = pins right and pin_out = pins into in
  let worker ctx =
    let my = Spmd.rank ctx in
    let z1, z2 = Grid.coord_of grid my in
    let home role tensor =
      let dims =
        List.filter
          (fun l -> not (Index.Map.mem l assign))
          (Dense.labels tensor)
      in
      let win = Schedule.block_ranges sched ext role ~dims ~step:0 ~z1 ~z2 in
      ref { tensor; win }
    in
    let my_left = home Variant.Left left in
    let my_right = home Variant.Right right in
    let my_out = home Variant.Out into in
    let cell_of role =
      match role with
      | Variant.Left -> my_left
      | Variant.Right -> my_right
      | Variant.Out -> my_out
    in
    let multiply_impl ~step =
      match Schedule.window sched ext ~step ~z1 ~z2 with
      | None -> ()
      | Some (lo, len) ->
        (* A rotated block's ω range narrows to the step's window,
           relative to the block that arrived, so a misrouted block still
           computes with the cells it names. *)
        let narrow role =
          let { win; _ } = !(cell_of role) in
          if not (Variant.rotates variant role) then win
          else
            let off, _ = Schedule.omega_range sched ext role ~step ~z1 ~z2 in
            List.map
              (fun ((i, (o, _)) as w) ->
                if Index.equal i omega then (i, (o + lo - off, len)) else w)
              win
        in
        let contract ?pin_out ?win_out into =
          Kernel.contract_acc ?pin_out ~pin_a ~pin_b ?win_out
            ~win_a:(narrow Variant.Left) ~win_b:(narrow Variant.Right) ~into
            !my_left.tensor !my_right.tensor
        in
        let out = !my_out and win_out = narrow Variant.Out in
        if win_out = out.win then contract ~pin_out ~win_out out.tensor
        else begin
          (* The held ω range strictly contains the window: sum into a
             temporary, then add it at the window's offsets. The output
             rotates, so every fused loop is fused away from it and
             nothing of it is pinned. *)
          let tmp =
            Dense.create (List.map (fun (i, (_, n)) -> (i, n)) win_out)
          in
          contract tmp;
          Dense.add_block out.tensor
            (List.map (fun (i, (o, _)) -> (i, o)) win_out)
            tmp
        end
    in
    let multiply ~step =
      if Obs.enabled () then
        Obs.span ~cat:"compute" ~tid:my "multiply" (fun () ->
            multiply_impl ~step)
      else multiply_impl ~step
    in
    (* Blocks move one hop toward the lower coordinate. *)
    let exchange (role, axis) =
      let neighbour by =
        Grid.rank_of grid (Grid.shift grid (z1, z2) ~axis ~by)
      in
      let cell = cell_of role in
      cell := Spmd.sendrecv ctx ~dst:(neighbour (-1)) !cell ~src:(neighbour 1)
    in
    for step = 0 to steps - 1 do
      multiply ~step;
      List.iter exchange (Schedule.shifts_after sched ~step ~z1 ~z2)
    done;
    Spmd.barrier ctx
  in
  let (_ : unit array) = Spmd.Pool.run pool worker in
  ()

let run_contraction ?pool grid ext variant ~left ~right =
  check_pool grid pool;
  let sched = prepare grid ext variant in
  let into =
    Dense.create
      (List.map
         (fun i -> (i, Extents.extent ext i))
         (Aref.indices (Variant.aref_of variant Variant.Out)))
  in
  with_team ?pool grid (fun pool ->
      cannon ~pool grid ext variant sched ~assign:Index.Map.empty ~left ~right
        ~into);
  into

(* ---------------- Plans ---------------- *)

let fused_of (step : Plan.step) = function
  | Variant.Out -> step.fusion_out
  | Variant.Left -> step.fusion_left
  | Variant.Right -> step.fusion_right

(* The words of each rank's home window (block (z1, z2) on rank
   (z1, z2)) of [aref] in distribution [alpha]. *)
let home_words grid ext alpha aref =
  Array.init (Grid.procs grid) (fun r ->
      List.fold_left
        (fun words (_, (_, len)) -> words * len)
        1
        (Dist.local_dims grid ext alpha ~coord:(Grid.coord_of grid r) aref))

(* Every assignment of [indices] (outermost first) on top of [base]. *)
let iter_assignments ext indices ~base f =
  let rec go assigned = function
    | [] -> f assigned
    | ix :: rest ->
      for v = 0 to Extents.extent ext ix - 1 do
        go (Index.Map.add ix v assigned) rest
      done
  in
  go base indices

(* The plan's fusion, executed (DESIGN.md §10). A step iterates only
   its forcing fused loops — the parent-edge fusion and the fusion of
   its stored operands (intermediates, or presummed inputs kept
   reduced) — the search's own rule, under which a leaf's fusion only
   streams that leaf's communication. Each iteration is one pass of the
   step's schedule with the loop values pinned, and counts the slices
   its rotated arrays are charged for outside those loops. A stored
   value is computed on demand, one fusion slice at a time, and kept
   until a different slice is asked for or its consumer is done with
   it. A step's output exists before its operands are computed, as it
   must when fused loops accumulate into it. *)
let run_plan_stats ?pool ?on_free grid ext (plan : Plan.t) ~inputs =
  check_pool grid pool;
  let root =
    match List.rev plan.steps with
    | last :: _ -> last
    | [] -> Tce_error.failf "Multicore.run_plan: plan has no steps"
  in
  let producer = Hashtbl.create 8 and presum = Hashtbl.create 4 in
  List.iter
    (fun (s : Plan.step) ->
      Hashtbl.replace producer (Aref.name s.contraction.Contraction.out) s)
    plan.steps;
  List.iter
    (fun (ps : Plan.presum) -> Hashtbl.replace presum (Aref.name ps.out) ps)
    plan.presums;
  let array_name (step : Plan.step) role =
    Aref.name (Variant.aref_of step.variant role)
  in
  let stored step role =
    let name = array_name step role in
    Hashtbl.mem producer name || Hashtbl.mem presum name
  in
  let operands = [ Variant.Left; Variant.Right ] in
  let forcing (step : Plan.step) =
    List.fold_left
      (fun acc role ->
        if stored step role then Index.Set.union acc (fused_of step role)
        else acc)
      step.fusion_out operands
  in
  (* The search's rules, which execution relies on: a forcing loop pins
     its index in every array that carries it, where no grid axis may
     also chunk it, and slices every rotated array, whose slices are what
     the model charges; no array is fused on an index its own
     distribution splits. *)
  List.iter
    (fun (step : Plan.step) ->
      let f = forcing step in
      List.iter
        (fun role ->
          let name = array_name step role and fused = fused_of step role in
          Index.Set.iter
            (fun t ->
              if Dist.distributes (Variant.dist_of step.variant role) t then
                Tce_error.failf
                  "Multicore: fused index %s is distributed in %s's role — \
                   not executable"
                  (Index.name t) name)
            (Index.Set.union f fused);
          if Variant.rotates step.variant role && not (Index.Set.subset f fused)
          then
            Tce_error.failf
              "Multicore: a fused loop around %s does not slice the rotated \
               %s — not executable"
              (Aref.name step.contraction.Contraction.out) name)
        [ Variant.Out; Variant.Left; Variant.Right ])
    plan.steps;
  let input name =
    match List.assoc_opt name inputs with
    | Some t -> t
    | None ->
      Tce_error.raise_err
        (Tce_error.Missing_tensor { where = "Multicore.run_plan"; name })
  in
  (* Residency: every rank's words of the live arrays' home windows. *)
  let live = Array.make (Grid.procs grid) 0 and peak = ref 0 in
  let account sign words =
    Array.iteri (fun r w -> live.(r) <- live.(r) + (sign * w)) words;
    peak := Array.fold_left max !peak live
  in
  (* Inputs are resident throughout, each under the distribution of the
     role consuming it (a presum's source under the presum's); a missing
     one fails before any step runs. *)
  let resident aref alpha =
    ignore (input (Aref.name aref) : Dense.t);
    account 1 (home_words grid ext alpha aref)
  in
  List.iter
    (fun (step : Plan.step) ->
      List.iter
        (fun role ->
          if not (stored step role) then
            resident
              (Variant.aref_of step.variant role)
              (Variant.dist_of step.variant role))
        operands)
    plan.steps;
  List.iter (fun (ps : Plan.presum) -> resident ps.source ps.dist) plan.presums;
  let held = Hashtbl.create 8 in
  let release name =
    Option.iter
      (fun (_, _, words) ->
        Hashtbl.remove held name;
        account (-1) words)
      (Hashtbl.find_opt held name)
  in
  let hold name sigma t words =
    release name;
    Hashtbl.replace held name (sigma, t, words);
    account 1 words
  in
  (* Dropping a value drops what was kept to recompute it. *)
  let rec drop name =
    if Hashtbl.mem held name then begin
      release name;
      if Obs.enabled () then Obs.instant ~cat:"memory" ("free:" ^ name);
      Option.iter (fun f -> f name) on_free;
      Option.iter
        (fun step ->
          List.iter (fun role -> drop (array_name step role)) operands)
        (Hashtbl.find_opt producer name)
    end
  in
  let rotations = ref 0 in
  let rows = Grid.rows grid and cols = Grid.cols grid in
  let execute pool =
    let rec value name sigma =
      match Hashtbl.find_opt held name with
      | Some (s, t, _) when Index.Map.equal Int.equal s sigma -> t
      | _ -> (
        match Hashtbl.find_opt producer name with
        | Some step -> produce step sigma
        | None ->
          let ps : Plan.presum = Hashtbl.find presum name in
          let src =
            Index.Map.fold
              (fun i v t -> Dense.slice t i v)
              sigma
              (input (Aref.name ps.source))
          in
          let t = Einsum.sum_over src ps.sum in
          hold name sigma t
            (home_words grid ext ps.dist (Aref.v name (Dense.labels t)));
          t)
    and produce (step : Plan.step) sigma =
      let variant = step.variant in
      let out = step.contraction.Contraction.out in
      let dims =
        List.filter
          (fun i -> not (Index.Set.mem i step.fusion_out))
          (Aref.indices out)
      in
      let into =
        Dense.create (List.map (fun i -> (i, Extents.extent ext i)) dims)
      in
      hold (Aref.name out) sigma into
        (home_words grid ext
           (Variant.dist_of variant Variant.Out)
           (Aref.v (Aref.name out) dims));
      let children = List.filter (stored step) operands in
      let forcing = forcing step in
      (* The loops this step adds to those its parent fixes. Their order
         does not matter: when the output rotates it is fused on every
         forcing loop, so there are none; otherwise both operands rotate,
         and each stored one is fused on all of them. *)
      let loops =
        Index.Set.elements (Index.Set.diff forcing step.fusion_out)
      in
      let slices =
        List.fold_left
          (fun n (role, _) ->
            n
            + Eqs.msg_factor_rect ext ~rows ~cols
                ~alpha:(Variant.dist_of variant role)
                ~fused:(Index.Set.diff (fused_of step role) forcing)
                ~dims:(Aref.indices (Variant.aref_of variant role)))
          0 (Variant.rotated variant)
      in
      let sched = prepare grid ext variant in
      iter_assignments ext loops ~base:sigma (fun assign ->
          let operand role =
            let name = array_name step role in
            if List.mem role children then
              value name
                (Index.Map.filter
                   (fun i _ -> Index.Set.mem i (fused_of step role))
                   assign)
            else input name
          in
          let left = operand Variant.Left in
          let right = operand Variant.Right in
          let pass () =
            cannon ~pool grid ext variant sched ~assign ~left ~right ~into
          in
          if Obs.enabled () then
            Obs.span ~cat:"plan" ("contraction:" ^ Aref.name out) pass
          else pass ();
          rotations := !rotations + slices);
      (* An operand sliced only on loops that this step's own parent
         fixes may serve the step's next evaluation too. *)
      List.iter
        (fun role ->
          if
            Index.Set.is_empty step.fusion_out
            || not (Index.Set.subset (fused_of step role) step.fusion_out)
          then drop (array_name step role))
        children;
      into
    in
    produce root Index.Map.empty
  in
  let result = with_team ?pool grid execute in
  { result; peak_words_per_proc = !peak; sliced_rotations = !rotations }

let run_plan ?pool ?on_free grid ext plan ~inputs =
  (run_plan_stats ?pool ?on_free grid ext plan ~inputs).result
