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

(* Ranks gather without a lock, so their output blocks must tile [result]
   disjointly. They do — the schedule's placement at a step is a
   permutation of blocks — but that is a property of [Schedule], not of
   this writer, so debug builds re-check it: two blocks are disjoint iff
   some dimension's (offset, length) ranges do not intersect. *)
let gather_blocks_disjoint blocks =
  let overlap (o1, l1) (o2, l2) = o1 < o2 + l2 && o2 < o1 + l1 in
  let blocks_overlap a b =
    List.for_all2 (fun (_, r1) (_, r2) -> overlap r1 r2) a b
  in
  let n = Array.length blocks in
  let ok = ref true in
  for r = 0 to n - 1 do
    for s = r + 1 to n - 1 do
      if blocks_overlap blocks.(r) blocks.(s) then ok := false
    done
  done;
  !ok

(* Generalized Cannon on domains (DESIGN.md §17), one body for every
   grid shape: [Schedule] says which block each rank holds at step 0,
   which roles it exchanges after each step and the ω window it
   multiplies over; this function only moves blocks and multiplies. Each
   step multiplies over the window, so every logical contribution is
   computed exactly once; when a rotated output block's ω range strictly
   contains the window, the product lands in a temporary and accumulates
   at an offset. Steps are serialized: multiply, then exchange. *)
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
  (* Each rank's final-step output block, precomputed so the disjointness
     backing the lock-free gather is checkable before any domain runs. *)
  let gather =
    Array.init (Grid.procs grid) (fun r ->
        let z1, z2 = Grid.coord_of grid r in
        Schedule.block_ranges sched ext Variant.Out ~dims:out_dims
          ~step:(steps - 1) ~z1 ~z2)
  in
  assert (gather_blocks_disjoint gather);
  let worker ctx =
    let my = Spmd.rank ctx in
    let z1, z2 = Grid.coord_of grid my in
    let home role ~dims =
      Schedule.block_ranges sched ext role ~dims ~step:0 ~z1 ~z2
    in
    let slice role full =
      ref (Dense.block full (home role ~dims:(Dense.labels full)))
    in
    let my_left = slice Variant.Left left in
    let my_right = slice Variant.Right right in
    let my_out =
      ref
        (Dense.create
           (List.map
              (fun (i, (_, len)) -> (i, len))
              (home Variant.Out ~dims:out_dims)))
    in
    let cell_of role =
      match role with
      | Variant.Left -> my_left
      | Variant.Right -> my_right
      | Variant.Out -> my_out
    in
    (* Accumulate each step straight into the rank's output block: no
       per-step delta tensor, no [Einsum.add]. Received blocks arrive by
       reference through the shared-heap Spmd mailbox. *)
    let multiply_impl ~step =
      match Schedule.window sched ext ~step ~z1 ~z2 with
      | None -> ()
      | Some (lo, len) ->
        let held role = Schedule.omega_range sched ext role ~step ~z1 ~z2 in
        (* Restrict a rotated operand to the window; a no-op (no copy)
           when it holds exactly the window. *)
        let operand role =
          let blk = !(cell_of role) in
          if not (Variant.rotates variant role) then blk
          else
            let off, n = held role in
            if off = lo && n = len then blk
            else Dense.block blk [ (omega, (lo - off, len)) ]
        in
        let lhs = operand Variant.Left and rhs = operand Variant.Right in
        let out_off, out_len =
          if Variant.rotates variant Variant.Out then held Variant.Out
          else (lo, len)
        in
        if out_off = lo && out_len = len then
          Einsum.contract2_acc ~into:!my_out lhs rhs
        else begin
          let tmp =
            Dense.create
              (List.map
                 (fun (i, n) -> (i, if Index.equal i omega then len else n))
                 (Dense.dims !my_out))
          in
          Einsum.contract2_acc ~into:tmp lhs rhs;
          Dense.add_block !my_out [ (omega, lo - out_off) ] tmp
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
    (* Gather: each domain writes its (possibly displaced) output block.
       The blocks tile [result] disjointly (asserted above), so the
       stride-walk writes need no lock; the join/completion handshake
       publishes them to the caller. *)
    let offsets =
      List.filter_map
        (fun (i, (off, _)) -> if off = 0 then None else Some (i, off))
        gather.(my)
    in
    (if Obs.enabled () then
       Obs.span ~cat:"compute" ~tid:my "gather" (fun () ->
           Dense.set_block result offsets !my_out)
     else Dense.set_block result offsets !my_out);
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
