open! Import

type report = {
  healthy : Plan.t;
  degraded : Plan.t;
  healthy_grid : Grid.t;
  degraded_grid : Grid.t;
  comm_delta : float;
  comm_ratio : float;
}

let survivor_grid grid =
  let side = Grid.side grid in
  if side <= 1 then
    Error
      "degrade: a 1x1 grid has no surviving sub-grid (the last processor \
       crashed)"
  else Grid.create ~procs:((side - 1) * (side - 1))

let survivor_procs topo grid =
  let procs = Grid.procs grid - Topology.procs_per_node topo in
  if procs <= 0 then
    Error
      "degrade: losing a node leaves no surviving processors to compute with"
  else Ok procs

(* The survivor law of a request's shape: a fixed grid shrinks to the
   next-smaller square under the analytic characterization of the same
   machine; a shape search loses one node's ranks and searches again. *)
let survivor_shape shape grid =
  match shape with
  | Search.Grid cfg ->
    Result.map
      (fun g ->
        Search.Grid
          {
            cfg with
            Search.grid = g;
            rcost = Rcost.of_params cfg.Search.params ~side:(Grid.side g);
          })
      (survivor_grid grid)
  | Search.Shapes s ->
    Result.map
      (fun procs -> Search.Shapes { s with procs })
      (survivor_procs s.topo grid)

let replan ext (req : Search.request) ~healthy =
  let ( let* ) = Result.bind in
  let* shape = survivor_shape req.shape healthy.Plan.grid in
  match req.problem with
  | Search.Sum _ -> Error "degrade: replanning covers single-tree plans"
  | Search.Tree _ ->
    let* degraded = Search.plan ext { req with shape } in
    let degraded = Search.tree_plan degraded in
    let h = Plan.comm_cost healthy and d = Plan.comm_cost degraded in
    Ok
      {
        healthy;
        degraded;
        healthy_grid = healthy.Plan.grid;
        degraded_grid = degraded.Plan.grid;
        comm_delta = d -. h;
        comm_ratio = (if h > 0.0 then d /. h else Float.infinity);
      }

let pp_report ppf r =
  Format.fprintf ppf
    "@[<v>degraded replan: %a -> %a@,\
     communication %.1f s -> %.1f s (delta %+.1f s, x%.2f)@,\
     total %.1f s -> %.1f s@]"
    Grid.pp r.healthy_grid Grid.pp r.degraded_grid
    (Plan.comm_cost r.healthy) (Plan.comm_cost r.degraded) r.comm_delta
    r.comm_ratio
    (Plan.total_seconds r.healthy)
    (Plan.total_seconds r.degraded)
