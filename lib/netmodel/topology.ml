open! Import

type link = Intra | Inter

type t = {
  params : Params.t;
  intra_step_time : Interp.t option;
}

let uniform params = { params; intra_step_time = None }

let node_aware params ~intra_latency ~intra_bandwidth =
  if intra_latency < 0.0 || intra_bandwidth <= 0.0 then
    invalid_arg "Topology.node_aware: non-positive intra-node parameter";
  if Params.(params.procs_per_node) < 1 then
    invalid_arg "Topology.node_aware: machine must have >= 1 proc per node";
  let intra =
    Interp.of_points_exn
      [
        (0.0, intra_latency);
        (1.0e9, intra_latency +. (1.0e9 /. intra_bandwidth));
      ]
  in
  { params; intra_step_time = Some intra }

let node_aware_table params ~intra_step_time =
  { params; intra_step_time = Some intra_step_time }

let params t = t.params
let is_uniform t = Option.is_none t.intra_step_time
let procs_per_node t = Params.(t.params.procs_per_node)

let node_of t ~rank =
  if rank < 0 then invalid_arg "Topology.node_of: negative rank";
  rank / procs_per_node t

let step_time t ~link ~bytes =
  match (link, t.intra_step_time) with
  | Inter, _ | Intra, None -> Params.step_time t.params ~bytes
  | Intra, Some table ->
    if bytes < 0.0 then invalid_arg "Topology.step_time: negative size";
    Interp.eval table bytes

(* A grid axis is an intra-node axis when every nearest-neighbour hop of
   every ring along that axis (wrap-around included) connects two ranks
   on the same node. Ranks are row-major ([Grid.rank_of]), nodes are
   [ppn] consecutive ranks, so in closed form:

   - the whole grid fits on one node ([rows · cols <= ppn]): every axis;
   - axis 1 (a column ring, stride [cols]) only when it has length 1:
     with two or more rows a ring spans [(rows-1) · cols + 1] ranks and
     every column sits on one node only if the whole grid does;
   - axis 2 (a row ring, [cols] consecutive ranks) when rows never
     straddle a node boundary: [ppn mod cols = 0].

   The test suite checks this against the walk over every coordinate. *)
let axis_link t grid ~axis =
  let ppn = procs_per_node t in
  if ppn < 1 then invalid_arg "Topology.axis_link: procs per node must be >= 1";
  let rows = Grid.rows grid and cols = Grid.cols grid in
  let aligned =
    match axis with
    | 1 -> rows = 1
    | 2 -> ppn mod cols = 0
    | _ -> invalid_arg "Topology.axis_link: axis must be 1 or 2"
  in
  if aligned || rows * cols <= ppn then Intra else Inter

let link_name = function Intra -> "intra" | Inter -> "inter"

let fingerprint t =
  match t.intra_step_time with
  | None -> "topo:uniform"
  | Some table ->
    let b = Buffer.create 128 in
    Buffer.add_string b
      (Printf.sprintf "topo:node;ppn=%d;intra=" (procs_per_node t));
    List.iter
      (fun (x, y) -> Buffer.add_string b (Printf.sprintf "%.17g:%.17g," x y))
      (Interp.points table);
    Buffer.contents b

let pp ppf t =
  match t.intra_step_time with
  | None -> Format.fprintf ppf "uniform topology"
  | Some table ->
    Format.fprintf ppf
      "node-aware topology: %d procs/node, intra step(1MB)=%.3gs"
      (procs_per_node t)
      (Interp.eval table 1e6)
