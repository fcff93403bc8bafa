open! Import

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

(* Generalized Cannon on domains (DESIGN.md §17), one body for every
   grid shape: [Schedule] says which block each rank holds at step 0,
   which roles it exchanges after each step and the ω window it
   multiplies over; this function only moves windows and multiplies.
   Each step multiplies over the window, so every logical contribution
   is computed exactly once; when a rotated output block's ω range
   strictly contains the window, the product lands in a temporary and
   accumulates at the window's offset. Steps are serialized: multiply,
   then exchange. *)
let run_contraction ?pool ?recv_timeout_s grid ext variant ~left ~right =
  check_extents grid ext variant;
  check_pool grid pool;
  if Obs.enabled () then begin
    Obs.count "multicore.contractions";
    for r = 0 to Grid.procs grid - 1 do
      Obs.set_thread_name ~pid:Obs.wall_pid ~tid:r
        (Printf.sprintf "rank %d" r)
    done
  end;
  let sched = Schedule.make variant grid in
  let steps = Schedule.steps sched in
  let omega = Variant.rot_index variant in
  let out_dims = Aref.indices (Variant.aref_of variant Variant.Out) in
  let result =
    Dense.create (List.map (fun i -> (i, Extents.extent ext i)) out_dims)
  in
  assert (
    List.for_all
      (fun step ->
        windows_disjoint
          (Array.init (Grid.procs grid) (fun r ->
               let z1, z2 = Grid.coord_of grid r in
               Schedule.block_ranges sched ext Variant.Out ~dims:out_dims ~step
                 ~z1 ~z2)))
      (List.init steps Fun.id));
  let worker ctx =
    let my = Spmd.rank ctx in
    let z1, z2 = Grid.coord_of grid my in
    let home role tensor =
      let dims = Dense.labels tensor in
      let win = Schedule.block_ranges sched ext role ~dims ~step:0 ~z1 ~z2 in
      ref { tensor; win }
    in
    let my_left = home Variant.Left left in
    let my_right = home Variant.Right right in
    let my_out = home Variant.Out result in
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
        let contract ?win_out into =
          Kernel.contract_acc ?win_out ~win_a:(narrow Variant.Left)
            ~win_b:(narrow Variant.Right) ~into !my_left.tensor
            !my_right.tensor
        in
        let out = !my_out and win_out = narrow Variant.Out in
        if win_out = out.win then contract ~win_out out.tensor
        else begin
          (* The held ω range strictly contains the window: sum into a
             temporary, then add it at the window's offsets. *)
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
      cell :=
        Spmd.sendrecv ?timeout_s:recv_timeout_s ctx ~dst:(neighbour (-1))
          !cell ~src:(neighbour 1)
    in
    for step = 0 to steps - 1 do
      multiply ~step;
      List.iter exchange (Schedule.shifts_after sched ~step ~z1 ~z2)
    done;
    Spmd.barrier ctx
  in
  let (_ : unit array) =
    match pool with
    | Some pool -> Spmd.Pool.run pool worker
    | None -> Spmd.run ~procs:(Grid.procs grid) worker
  in
  result

let run_plan ?pool ?recv_timeout_s ?on_free grid ext (plan : Plan.t) ~inputs =
  check_pool grid pool;
  if plan.steps = [] then Tce_error.failf "Multicore.run_plan: plan has no steps";
  let env = Hashtbl.create 16 in
  List.iter (fun (name, t) -> Hashtbl.replace env name t) inputs;
  let final_name =
    let last = List.nth plan.steps (List.length plan.steps - 1) in
    Aref.name last.Plan.contraction.Contraction.out
  in
  (* Liveness: the step index after which each tensor is dead. Executing a
     memory-constrained plan while holding every intermediate until the
     end would betray the [MemLimit] discipline the search enforced, so
     env entries are dropped after their last consumption (the caller
     keeps its own references to inputs; intermediates become garbage). *)
  let dying = Array.make (List.length plan.steps) [] in
  let last_use = Hashtbl.create 16 in
  List.iteri
    (fun k (step : Plan.step) ->
      Hashtbl.replace last_use (Aref.name step.contraction.Contraction.left) k;
      Hashtbl.replace last_use (Aref.name step.contraction.Contraction.right) k)
    plan.steps;
  Hashtbl.iter
    (fun name k ->
      if not (String.equal name final_name) then dying.(k) <- name :: dying.(k))
    last_use;
  let free name =
    if Hashtbl.mem env name then begin
      Hashtbl.remove env name;
      if Obs.enabled () then Obs.instant ~cat:"memory" ("free:" ^ name);
      Option.iter (fun f -> f name) on_free
    end
  in
  (* Local pre-summations (no communication) before any contraction. *)
  List.iter
    (fun (ps : Plan.presum) ->
      match Hashtbl.find_opt env (Aref.name ps.source) with
      | None ->
        Tce_error.raise_err
          (Tce_error.Missing_tensor
             { where = "Multicore.run_plan"; name = Aref.name ps.source })
      | Some src ->
        Hashtbl.replace env (Aref.name ps.out) (Einsum.sum_over src ps.sum))
    plan.presums;
  let lookup aref =
    match Hashtbl.find_opt env (Aref.name aref) with
    | Some t -> t
    | None ->
      Tce_error.raise_err
        (Tce_error.Missing_tensor
           { where = "Multicore.run_plan"; name = Aref.name aref })
  in
  let execute pool =
    let last = ref None in
    List.iteri
      (fun k (step : Plan.step) ->
        let contract () =
          run_contraction ~pool ?recv_timeout_s grid ext step.variant
            ~left:(lookup step.contraction.Contraction.left)
            ~right:(lookup step.contraction.Contraction.right)
        in
        let out =
          if Obs.enabled () then
            Obs.span ~cat:"plan"
              ("contraction:" ^ Aref.name step.contraction.Contraction.out)
              contract
          else contract ()
        in
        Hashtbl.replace env (Aref.name step.contraction.Contraction.out) out;
        List.iter free dying.(k);
        last := Some out)
      plan.steps;
    Option.get !last
  in
  match pool with
  | Some pool -> execute pool
  | None ->
    (* One persistent team serves every step: spawn/join is paid once per
       plan, not once per contraction. *)
    Spmd.with_pool ~procs:(Grid.procs grid) execute
