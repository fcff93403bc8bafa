open! Import

type t = {
  params : Params.t;
  grid : Grid.t;
  faults : Fault.t option;
  topo : Topology.t;
  axis1 : Topology.link;  (* the link class each axis rotates over *)
  axis2 : Topology.link;
  clocks : float array;  (* indexed by Grid.rank_of *)
  mutable comm : float;  (* critical-path communication time *)
  mutable work : float;  (* critical-path computation time *)
}

let create ?faults ?topo params grid =
  (match faults with
  | Some f when Grid.procs (Fault.grid f) <> Grid.procs grid ->
    invalid_arg "Cluster.create: fault model built for a different grid"
  | _ -> ());
  let topo = Option.value topo ~default:(Topology.uniform params) in
  {
    params;
    grid;
    faults;
    topo;
    axis1 = Topology.axis_link topo grid ~axis:1;
    axis2 = Topology.axis_link topo grid ~axis:2;
    clocks = Array.make (Grid.procs grid) 0.0;
    comm = 0.0;
    work = 0.0;
  }

let params t = t.params
let grid t = t.grid
let faults t = t.faults
let clock t = Array.fold_left Float.max 0.0 t.clocks
let comm_seconds t = t.comm
let compute_seconds t = t.work

let crashed t =
  match t.faults with
  | None -> None
  | Some f -> Fault.check_crash f ~now:(clock t)

let compute_rate_factor t r =
  match t.faults with
  | None -> 1.0
  | Some f -> Fault.compute_factor f ~rank:r

let compute t ~flops =
  let before = clock t in
  List.iter
    (fun coord ->
      let r = Grid.rank_of t.grid coord in
      t.clocks.(r) <-
        t.clocks.(r)
        +. (compute_rate_factor t r
           *. Params.compute_time t.params ~flops:(flops coord)))
    (Grid.coords t.grid);
  t.work <- t.work +. (clock t -. before)

let compute_uniform t ~flops_per_proc = compute t ~flops:(fun _ -> flops_per_proc)

let shift_round t ~axis ~bytes =
  let before = clock t in
  let procs = Grid.procs t.grid in
  (* Per-rank transfer duration for the block this rank sends, including
     the fault model's link degradation and transient-loss retries. The
     loss draws are consumed in rank order, once per rank per round, so a
     seeded model replays identically. *)
  let xfer = Array.make procs 0.0 in
  for r = 0 to procs - 1 do
    let coord = Grid.coord_of t.grid r in
    let base =
      Topology.step_time t.topo
        ~link:(if axis = 1 then t.axis1 else t.axis2)
        ~bytes:(bytes coord)
    in
    xfer.(r) <-
      (match t.faults with
      | None -> base
      | Some f ->
        (base *. Fault.link_factor f ~rank:r ~axis)
        +. Fault.loss_delay f ~rank:r ~axis ~now:t.clocks.(r))
  done;
  let next = Array.copy t.clocks in
  List.iter
    (fun coord ->
      let r = Grid.rank_of t.grid coord in
      let peer_to = Grid.rank_of t.grid (Grid.shift t.grid coord ~axis ~by:(-1)) in
      let peer_from = Grid.rank_of t.grid (Grid.shift t.grid coord ~axis ~by:1) in
      (* A processor's round completes when its send to -1 and its receive
         from +1 are both done; each transfer starts when both ends are
         ready. *)
      let send_done = Float.max t.clocks.(r) t.clocks.(peer_to) +. xfer.(r) in
      let recv_done =
        Float.max t.clocks.(r) t.clocks.(peer_from) +. xfer.(peer_from)
      in
      next.(r) <- Float.max send_done recv_done)
    (Grid.coords t.grid);
  Array.blit next 0 t.clocks 0 (Array.length next);
  t.comm <- t.comm +. (clock t -. before)

let shift_round_uniform t ~axis ~bytes = shift_round t ~axis ~bytes:(fun _ -> bytes)

let advance_comm_uniform t ~seconds =
  if seconds < 0.0 then
    Error
      (Tce_error.Negative_time
         { where = "Cluster.advance_comm_uniform"; seconds })
  else begin
    for r = 0 to Array.length t.clocks - 1 do
      t.clocks.(r) <- t.clocks.(r) +. seconds
    done;
    t.comm <- t.comm +. seconds;
    Ok ()
  end

let barrier t =
  let m = clock t in
  Array.fill t.clocks 0 (Array.length t.clocks) m

let reset t =
  Array.fill t.clocks 0 (Array.length t.clocks) 0.0;
  t.comm <- 0.0;
  t.work <- 0.0
