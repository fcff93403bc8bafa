open! Import

type timing = {
  comm_seconds : float;
  compute_seconds : float;
  total_seconds : float;
  overlapped_seconds : float;
}

let max_rounds = 10_000_000

(* Raise the typed error when the fault model's crash time has passed;
   callers of [run_plan] receive it as [Error (Node_crashed _)]. *)
let poll_crash cluster =
  match Cluster.crashed cluster with
  | Some (rank, at) -> Tce_error.raise_err (Tce_error.Node_crashed { rank; at })
  | None -> ()

(* Per-block slice size (words) of a rotated array: lengths of the two
   distributed dimensions at this block coordinate, full extents elsewhere,
   fused dimensions reduced to single slices. *)
let slice_words ext grid ~alpha ~fused ~dims ~b1 ~b2 =
  List.fold_left
    (fun acc i ->
      let extent = Extents.extent ext i in
      let len =
        if Index.Set.mem i fused then 1
        else
          match Dist.position_of alpha i with
          | Some 1 -> snd (Grid.myrange grid ~axis:1 ~extent ~coord:b1)
          | Some 2 -> snd (Grid.myrange grid ~axis:2 ~extent ~coord:b2)
          | _ -> extent
      in
      acc * len)
    1 dims

(* Raise the typed deadline error once [cancel] fires. *)
let poll_cancel = function
  | Some cancelled when cancelled () ->
    Tce_error.raise_err
      (Tce_error.Deadline_exceeded { where = "Simulate.run_plan" })
  | _ -> ()

let simulate_step ~poll cluster ext (step : Plan.step) =
  let grid = Cluster.grid cluster in
  let procs = Grid.procs grid in
  (* The skewed square schedule gives per-rank (possibly ragged) block
     coordinates; rectangular replays charge the uniform ceiling block
     size instead (the same size the cost model and the memory account
     use), over [Grid.rotation_steps] rounds per rotation. *)
  let sched =
    if Grid.is_square grid then Some (Schedule.make step.variant grid)
    else None
  in
  let rows = Grid.rows grid and cols = Grid.cols grid in
  (* Sim-clock tracing: spans are positioned at the cluster's own clock,
     so the exported trace shows the replay's timeline, not ours. All
     probes sit behind one [Obs.enabled] check to keep the untraced
     replay untouched. *)
  let traced = Obs.enabled () in
  let step_t0 = if traced then Cluster.clock cluster else 0. in
  (* Rotations, serialized per role as in the cost model. *)
  List.iter
    (fun ((role : Variant.role), axis) ->
      let alpha = Variant.dist_of step.variant role in
      let fused =
        match role with
        | Variant.Out -> step.fusion_out
        | Variant.Left -> step.fusion_left
        | Variant.Right -> step.fusion_right
      in
      let dims = Aref.indices (Variant.aref_of step.variant role) in
      let m = Eqs.msg_factor_rect ext ~rows ~cols ~alpha ~fused ~dims in
      let rounds = Grid.rotation_steps grid ~axis in
      if m * rounds > max_rounds then
        Tce_error.raise_err
          (Tce_error.Runaway_rounds
             {
               where =
                 Printf.sprintf "Simulate: step at %s"
                   (Aref.name (Variant.aref_of step.variant role));
               rounds = m * rounds;
               limit = max_rounds;
             });
      let bytes_at =
        match sched with
        | Some sched ->
          fun round (z1, z2) ->
            let b1, b2 = Schedule.block_at sched role ~step:round ~z1 ~z2 in
            Units.bytes_of_words
              (slice_words ext grid ~alpha ~fused ~dims ~b1 ~b2)
        | None ->
          let words =
            Eqs.dist_size_rect ext ~rows ~cols ~alpha ~fused ~dims
          in
          fun _round _coord -> Units.bytes_of_words words
      in
      let aref_name = Aref.name (Variant.aref_of step.variant role) in
      let rot_t0 = if traced then Cluster.clock cluster else 0. in
      for _iter = 1 to m do
        for round = 0 to rounds - 1 do
          let round_t0 = if traced then Cluster.clock cluster else 0. in
          Cluster.shift_round cluster ~axis ~bytes:(bytes_at round);
          if traced then
            Obs.span_sim ~cat:"comm"
              ~args:[ ("axis", string_of_int axis) ]
              ("shift:" ^ aref_name) ~t0:round_t0
              ~t1:(Cluster.clock cluster);
          poll ()
        done
      done;
      if traced then
        Obs.span_sim ~cat:"comm"
          ~args:
            [
              ("axis", string_of_int axis);
              ("rounds", string_of_int (m * rounds));
            ]
          ("rotate:" ^ aref_name) ~t0:rot_t0 ~t1:(Cluster.clock cluster))
    (Variant.rotated step.variant);
  List.iter
    (fun (rd : Plan.redist) ->
      Cluster.barrier cluster;
      let rd_t0 = if traced then Cluster.clock cluster else 0. in
      Tce_error.get_ok (Cluster.advance_comm_uniform cluster ~seconds:rd.cost);
      if traced then
        Obs.span_sim ~cat:"comm"
          ("redistribute:"
          ^ Aref.name (Variant.aref_of step.variant rd.Plan.role))
          ~t0:rd_t0 ~t1:(Cluster.clock cluster);
      poll ())
    step.redists;
  let cmp_t0 = if traced then Cluster.clock cluster else 0. in
  Cluster.compute_uniform cluster
    ~flops_per_proc:(float_of_int step.flops /. float_of_int procs);
  if traced then begin
    let out = Aref.name step.contraction.Contraction.out in
    Obs.span_sim ~cat:"compute"
      ~args:[ ("flops", string_of_int step.flops) ]
      ("compute:" ^ out) ~t0:cmp_t0 ~t1:(Cluster.clock cluster);
    Obs.span_sim ~cat:"step" ("step:" ^ out) ~t0:step_t0
      ~t1:(Cluster.clock cluster)
  end;
  poll ();
  Cluster.barrier cluster

let run_plan ?faults ?topo ?(overlap = Overlap.none) ?cancel params ext
    (plan : Plan.t) =
  Tce_error.protect (fun () ->
      let cluster = Cluster.create ?faults ?topo params plan.grid in
      let poll () =
        poll_crash cluster;
        poll_cancel cancel
      in
      let procs = Grid.procs plan.grid in
      (* The replay itself is serialized exactly as before; the overlap
         law is applied to each step's (comm, compute) deltas on the
         side, so [overlapped_seconds] answers "what would this replay
         have cost had the engine hidden comm behind compute" without
         perturbing the paper-faithful clocks. *)
      let overlapped = ref 0.0 in
      List.iter
        (fun (ps : Plan.presum) ->
          let traced = Obs.enabled () in
          let t0 = if traced then Cluster.clock cluster else 0. in
          let w0 = Cluster.compute_seconds cluster in
          Cluster.compute_uniform cluster
            ~flops_per_proc:(float_of_int ps.flops /. float_of_int procs);
          if traced then
            Obs.span_sim ~cat:"compute"
              ("presum:" ^ Aref.name ps.out)
              ~t0 ~t1:(Cluster.clock cluster);
          overlapped := !overlapped +. (Cluster.compute_seconds cluster -. w0);
          poll ())
        plan.presums;
      List.iter
        (fun step ->
          let c0 = Cluster.comm_seconds cluster in
          let w0 = Cluster.compute_seconds cluster in
          simulate_step ~poll cluster ext step;
          overlapped :=
            !overlapped
            +. Overlap.step_seconds overlap
                 ~comm:(Cluster.comm_seconds cluster -. c0)
                 ~compute:(Cluster.compute_seconds cluster -. w0))
        plan.steps;
      {
        comm_seconds = Cluster.comm_seconds cluster;
        compute_seconds = Cluster.compute_seconds cluster;
        total_seconds = Cluster.clock cluster;
        overlapped_seconds = !overlapped;
      })

let run_plan_exn ?faults ?overlap params ext plan =
  Tce_error.get_ok (run_plan ?faults ?overlap params ext plan)

let measure_rotation params grid ~axis ~words =
  let cluster = Cluster.create params grid in
  for _round = 1 to Grid.rotation_steps grid ~axis do
    Cluster.shift_round_uniform cluster ~axis
      ~bytes:(Units.bytes_of_words words)
  done;
  Cluster.clock cluster

let pp_timing ppf t =
  Format.fprintf ppf "comm %.1f s + compute %.1f s = %.1f s" t.comm_seconds
    t.compute_seconds t.total_seconds
