(* Differential and property suite for the node-aware topology layer
   (DESIGN.md §17): the uniform-topology replay gate (topology-priced
   costs and plans must be bit-for-bit the square-grid ones, on the CCSD
   examples and a Gencorpus sweep), the rectangular Cannon executor
   checked against the sequential kernel, cost-model properties for
   degenerate and node-aligned shapes, and the acceptance run where a
   2-procs/node characterization picks a node-aligned non-square grid
   with strictly lower modeled communication than the uniform choice. *)

open Tce
open Helpers

let topo_uniform = Topology.uniform params

(* Fast intra-node links: 10 ns latency, 100x the inter-node bandwidth of
   a 1 GB/s alpha-beta machine. *)
let fast_machine =
  Params.uniform ~name:"fast-intra-test" ~latency:1e-5 ~bandwidth:1e9
    ~flop_rate:1e9 ~procs_per_node:2 ~mem_per_node_bytes:4e9

let topo_node =
  Topology.node_aware fast_machine ~intra_latency:1e-8 ~intra_bandwidth:1e11

let config_of_topo topo grid =
  Search.default_config ~grid ~params:(Topology.params topo)
    ~rcost:(Rcost.of_topology topo grid) ()

(* The shape search over every factorization of [procs] on [topo], or
   its brute-force oracle. *)
let shape_search ?(oracle = false) topo ~procs ext tree =
  let req =
    Search.request
      (Search.Shapes
         {
           topo;
           procs;
           base = config_of_topo topo (Grid.create_rect_exn ~rows:1 ~cols:procs);
         })
      (Search.Tree tree)
  in
  Result.map Search.tree_plan
    ((if oracle then Search.brute_force ext else Search.plan ext) req)

let plan_str p = Format.asprintf "%a" Plan.pp p

(* ---------- the topology model itself ---------- *)

let test_axis_link_classification () =
  let check ~rows ~cols ~axis expect =
    let grid = get_ok ~ctx:"grid" (Grid.create_rect ~rows ~cols) in
    Alcotest.(check string)
      (Printf.sprintf "%dx%d axis %d" rows cols axis)
      expect
      (Topology.link_name (Topology.axis_link topo_node grid ~axis))
  in
  (* ppn = 2, row-major ranks: a cols=2 grid keeps every axis-2 ring on
     one node; axis 1 always hops between nodes (stride = cols >= 2). *)
  check ~rows:2 ~cols:2 ~axis:1 "inter";
  check ~rows:2 ~cols:2 ~axis:2 "intra";
  check ~rows:4 ~cols:2 ~axis:1 "inter";
  check ~rows:4 ~cols:2 ~axis:2 "intra";
  check ~rows:2 ~cols:4 ~axis:1 "inter";
  check ~rows:2 ~cols:4 ~axis:2 "inter";
  (* A length-1 axis never leaves the rank, hence never leaves the node. *)
  check ~rows:1 ~cols:4 ~axis:1 "intra";
  check ~rows:1 ~cols:4 ~axis:2 "inter";
  check ~rows:4 ~cols:1 ~axis:2 "intra";
  Alcotest.(check int) "node of rank 3 at ppn 2" 1
    (Topology.node_of topo_node ~rank:3);
  Alcotest.(check bool) "fingerprints distinguish topologies" false
    (String.equal
       (Topology.fingerprint topo_uniform)
       (Topology.fingerprint topo_node))

let test_uniform_step_time_identity () =
  List.iter
    (fun bytes ->
      List.iter
        (fun link ->
          check_float
            (Printf.sprintf "uniform %s @%g" (Topology.link_name link) bytes)
            (Params.step_time params ~bytes)
            (Topology.step_time topo_uniform ~link ~bytes))
        [ Topology.Intra; Topology.Inter ])
    [ 0.0; 64.0; 1e4; 1e6; 1e8 ]

(* ---------- uniform replay gate: costs ---------- *)

(* [Rcost.of_topology] under the uniform topology must produce the exact
   characterization [Rcost.of_params] does: same table, bit-for-bit. *)
let test_uniform_rcost_bitwise () =
  List.iter
    (fun side ->
      let grid = Grid.create_exn ~procs:(side * side) in
      let square = Rcost.of_params params ~side in
      let topo = Rcost.of_topology topo_uniform grid in
      Alcotest.(check string)
        (Printf.sprintf "fingerprint side %d" side)
        (Rcost.fingerprint square) (Rcost.fingerprint topo);
      List.iter
        (fun words ->
          List.iter
            (fun axis ->
              let q1 = Rcost.query square ~axis ~words in
              let q2 = Rcost.query topo ~axis ~words in
              if Int64.bits_of_float q1 <> Int64.bits_of_float q2 then
                Alcotest.failf "side %d axis %d words %d: %h vs %h" side axis
                  words q1 q2)
            [ 1; 2 ])
          [ 1; 17; 4096; 123_456; 10_000_000 ])
    [ 2; 3; 4; 6 ]

(* ---------- uniform replay gate: plans ---------- *)

(* On a square grid, a config characterized through the uniform topology
   must yield byte-identical plans to the historical square path. *)
let check_same_grid_identity ~ctx ext tree procs =
  let grid, cfg = search_config procs in
  let cfg_topo =
    {
      cfg with
      Search.rcost = Rcost.of_topology topo_uniform grid;
      params = Topology.params topo_uniform;
    }
  in
  match (Search.optimize cfg ext tree, Search.optimize cfg_topo ext tree) with
  | Ok a, Ok b ->
    Alcotest.(check string) (ctx ^ ": same-grid plan bytes") (plan_str a)
      (plan_str b);
    Some a
  | Error a, Error b ->
    Alcotest.(check string) (ctx ^ ": same-grid error") a b;
    None
  | Ok _, Error e -> Alcotest.failf "%s: topology path infeasible: %s" ctx e
  | Error e, Ok _ -> Alcotest.failf "%s: square path infeasible: %s" ctx e

(* The shape search under the uniform topology is never worse than the
   square grid, and whenever it keeps the square (the tie-break prefers
   it) the plan is byte-for-byte the square path's. A degenerate 1xP /
   Px1 shape may win outright — its length-1 axis rotates for free — and
   then strictly lower cost is required. *)
let check_shape_choice_identity ~ctx ext tree procs square_plan =
  match shape_search topo_uniform ~procs ext tree with
  | Error e -> Alcotest.failf "%s: shape search failed: %s" ctx e
  | Ok p ->
    if Grid.is_square p.Plan.grid then
      Alcotest.(check string)
        (ctx ^ ": uniform shape search reproduces the square plan")
        (plan_str square_plan) (plan_str p)
    else if Plan.comm_cost p >= Plan.comm_cost square_plan then
      Alcotest.failf
        "%s: non-square shape %s kept without strictly beating the square \
         (%.6f vs %.6f)"
        ctx
        (Format.asprintf "%a" Grid.pp p.Plan.grid)
        (Plan.comm_cost p) (Plan.comm_cost square_plan)

let test_uniform_plans_ccsd () =
  List.iter
    (fun (scale, name) ->
      let problem, _, tree = ccsd ~scale in
      let ext = problem.Problem.extents in
      List.iter
        (fun procs ->
          let ctx = Printf.sprintf "ccsd-%s procs %d" name procs in
          match check_same_grid_identity ~ctx ext tree procs with
          | Some plan -> check_shape_choice_identity ~ctx ext tree procs plan
          | None -> ())
        [ 4; 16 ])
    [ (`Tiny, "tiny"); (`Small, "small"); (`Paper, "paper") ]

let test_uniform_plans_corpus () =
  let instances = Gencorpus.fuzz ~seed:20260808 ~count:30 in
  List.iter
    (fun { Gencorpus.name; ext; tree } ->
      List.iter
        (fun procs ->
          let ctx = Printf.sprintf "%s procs %d" name procs in
          match check_same_grid_identity ~ctx ext tree procs with
          | Some plan -> check_shape_choice_identity ~ctx ext tree procs plan
          | None -> ())
        [ 4; 9 ])
    instances

(* ---------- rectangular executor ---------- *)

(* Every Cannon variant of a matrix product, on every small rectangular
   shape (divisible, non-divisible, and degenerate 1xP / Px1), must equal
   the sequential kernel — including ragged extents that do not divide
   either axis. *)
let test_rect_multicore_matches_sequential () =
  let i = Index.v "i" and j = Index.v "j" and k = Index.v "k" in
  let contraction =
    get_ok ~ctx:"contraction"
      (Contraction.make ~out:(Aref.v "C" [ i; j ]) ~left:(Aref.v "A" [ i; k ])
         ~right:(Aref.v "B" [ k; j ]) ~sum:[ k ])
  in
  let prng = Prng.create ~seed:42 in
  List.iter
    (fun (rows, cols) ->
      List.iter
        (fun (ni, nj, nk) ->
          let grid = get_ok ~ctx:"grid" (Grid.create_rect ~rows ~cols) in
          let ext = Extents.of_list_exn [ (i, ni); (j, nj); (k, nk) ] in
          let left = Dense.create [ (i, ni); (k, nk) ] in
          let right = Dense.create [ (k, nk); (j, nj) ] in
          Dense.fill_random left prng;
          Dense.fill_random right prng;
          let reference = Einsum.contract2 ~out:[ i; j ] left right in
          List.iter
            (fun v ->
              let got = Multicore.run_contraction grid ext v ~left ~right in
              if not (Dense.equal_approx ~tol:1e-9 reference got) then
                Alcotest.failf "%dx%d ext (%d,%d,%d) %s: wrong result" rows
                  cols ni nj nk
                  (Format.asprintf "%a" Variant.pp v))
            (Variant.all contraction))
        [ (7, 8, 9); (max rows cols, rows * cols, 2 * max rows cols) ])
    [ (1, 2); (2, 1); (1, 4); (2, 4); (4, 2); (2, 6); (2, 3); (3, 2); (3, 4) ]

(* A full rectangular plan run end-to-end on domains matches the
   sequential full-space evaluation of the same tree. *)
let test_rect_plan_execution () =
  let problem, seq, tree = ccsd ~scale:`Small in
  let ext = problem.Problem.extents in
  let grid = get_ok ~ctx:"grid" (Grid.create_rect ~rows:2 ~cols:3) in
  let cfg = config_of_topo topo_uniform grid in
  let plan = get_ok ~ctx:"plan" (Search.optimize cfg ext tree) in
  let inputs = Sequence.random_inputs ext ~seed:7 seq in
  let reference = Sequence.eval ext ~inputs seq in
  let got = Multicore.run_plan grid ext plan ~inputs in
  if not (Dense.equal_approx ~tol:1e-9 reference got) then
    Alcotest.fail "rectangular plan execution diverges from sequential"

(* The node-aware replay prices each shift round by the link class of
   its axis, so it reproduces the modeled communication of a node-aware
   plan on square and rectangular shapes alike; the flat replay misses
   it wherever a plan rotates along an intra-node axis. *)
let test_node_replay_matches_model () =
  let problem, _, tree = ccsd ~scale:`Small in
  let ext = problem.Problem.extents in
  let topo =
    Topology.node_aware params ~intra_latency:1e-6 ~intra_bandwidth:1e9
  in
  let flat_misses = ref 0 in
  List.iter
    (fun (rows, cols) ->
      let ctx = Printf.sprintf "%dx%d" rows cols in
      let grid = get_ok ~ctx (Grid.create_rect ~rows ~cols) in
      let plan =
        get_ok ~ctx (Search.optimize (config_of_topo topo grid) ext tree)
      in
      let replay =
        get_ok ~ctx
          (Tce_error.to_string_result (Simulate.run_plan ~topo params ext plan))
      in
      check_close ~ctx:(ctx ^ " replay = model") (Plan.comm_cost plan)
        replay.Simulate.comm_seconds;
      let flat = simulate params ext plan in
      if Float.abs (flat.Simulate.comm_seconds -. Plan.comm_cost plan) > 1e-9
      then incr flat_misses)
    [ (2, 2); (4, 2); (2, 4); (6, 2); (4, 4) ];
  Alcotest.(check bool) "the flat replay misses some shape" true
    (!flat_misses > 0)

(* ---------- cost-model properties ---------- *)

(* Degenerate 1xP / Px1 grids price out as pure shift chains: zero cost
   along the length-1 axis, P serialized shift steps along the other. *)
let test_degenerate_shapes_are_shift_chains () =
  let words = 10_000 in
  let bytes = Units.bytes_of_words words in
  List.iter
    (fun (rows, cols) ->
      let grid = get_ok ~ctx:"grid" (Grid.create_rect ~rows ~cols) in
      let long_axis = if rows > 1 then 1 else 2 in
      let p = max rows cols in
      check_float
        (Printf.sprintf "%dx%d short axis free" rows cols)
        0.0
        (Rcost.topology_measure topo_uniform grid ~axis:(3 - long_axis) ~words);
      check_float
        (Printf.sprintf "%dx%d long axis = %d shifts" rows cols p)
        (float_of_int p *. Params.step_time params ~bytes)
        (Rcost.topology_measure topo_uniform grid ~axis:long_axis ~words))
    [ (1, 4); (4, 1); (1, 7); (7, 1) ]

(* With intra-node links at least as fast as inter-node ones, a
   node-aligned rotation axis is never costlier than the same rotation
   priced inter-node. *)
let test_node_aligned_axis_never_costlier () =
  QCheck2.Test.check_exn
    (QCheck2.Test.make ~count:200 ~name:"node-aligned axis never costlier"
       QCheck2.Gen.(
         triple (int_range 1 6) (int_range 1 6) (int_range 1 100_000))
       (fun (rows, cols, words) ->
         let grid = Grid.create_rect_exn ~rows ~cols in
         List.for_all
           (fun axis ->
             let aligned =
               Rcost.topology_measure topo_node grid ~axis ~words
             in
             let steps = Grid.rotation_steps grid ~axis in
             let inter =
               float_of_int steps
               *. Topology.step_time topo_node ~link:Topology.Inter
                    ~bytes:(Units.bytes_of_words words)
             in
             aligned <= inter +. 1e-12)
           [ 1; 2 ]))

(* ---------- shape selection and the acceptance criterion ---------- *)

let test_shape_candidates () =
  let shapes =
    List.map
      (fun g -> (Grid.rows g, Grid.cols g))
      (Search.shape_candidates ~procs:12)
  in
  Alcotest.(check (list (pair int int)))
    "all factorizations of 12"
    [ (1, 12); (2, 6); (3, 4); (4, 3); (6, 2); (12, 1) ]
    shapes

(* Acceptance: under the 2-procs/node characterization at least one
   corpus instance must choose a non-square, node-aligned grid whose
   modeled communication is strictly below the shape the uniform
   topology would pick — certified by the brute-force factorization
   oracle and by [Plan.validate]. *)
let test_node_aware_beats_uniform_choice () =
  let topo_uniform_fast = Topology.uniform fast_machine in
  let procs = 8 in
  let instances = Gencorpus.fuzz ~seed:20260808 ~count:12 in
  let witnesses = ref 0 in
  List.iter
    (fun { Gencorpus.name; ext; tree } ->
      match
        ( shape_search topo_node ~procs ext tree,
          shape_search topo_uniform_fast ~procs ext tree )
      with
      | Ok node_plan, Ok uniform_plan ->
        let node_grid = node_plan.Plan.grid in
        let uniform_grid = uniform_plan.Plan.grid in
        (* Re-price the uniform topology's shape choice under the
           node-aware model: the fair baseline for "choosing the shape
           mattered". *)
        let uniform_shape_repriced =
          get_ok ~ctx:(name ^ " reprice")
            (Search.optimize (config_of_topo topo_node uniform_grid) ext tree)
        in
        let cost_node = Plan.comm_cost node_plan in
        let cost_baseline = Plan.comm_cost uniform_shape_repriced in
        if
          (not (Grid.is_square node_grid))
          && Search.intra_axis_count topo_node node_grid > 0
          && Grid.rows node_grid <> Grid.rows uniform_grid
          && cost_node < cost_baseline *. (1.0 -. 1e-9)
        then begin
          incr witnesses;
          (* The oracle agrees shape-by-shape and the plan certifies. *)
          let oracle =
            get_ok ~ctx:(name ^ " oracle")
              (shape_search ~oracle:true topo_node ~procs ext tree)
          in
          check_close ~ctx:(name ^ " oracle cost") (Plan.comm_cost oracle)
            cost_node;
          (match Plan.validate node_plan with
          | Ok () -> ()
          | Error e -> Alcotest.failf "%s: plan fails validation: %s" name e);
          (* And the chosen rectangular plan still replays. *)
          let timing = simulate fast_machine ext node_plan in
          Alcotest.(check bool) (name ^ " simulates") true
            (timing.Simulate.total_seconds > 0.0)
        end
      | Error _, _ | _, Error _ -> ())
    instances;
  Alcotest.(check bool)
    (Printf.sprintf "witnesses found (%d)" !witnesses)
    true (!witnesses > 0)

(* Degenerate-processor-count coverage: non-square [procs] has no square
   shape at all; the shape search must still return a certified plan. *)
let test_non_square_procs () =
  let problem, _, tree = ccsd ~scale:`Tiny in
  let ext = problem.Problem.extents in
  let plan =
    get_ok ~ctx:"shape search" (shape_search topo_uniform ~procs:6 ext tree)
  in
  Alcotest.(check int) "6 ranks used" 6 (Grid.procs plan.Plan.grid);
  (match Plan.validate plan with
  | Ok () -> ()
  | Error e -> Alcotest.failf "plan fails validation: %s" e);
  let timing = simulate params ext plan in
  Alcotest.(check bool) "simulates" true (timing.Simulate.total_seconds > 0.0)

let suite =
  [
    ( "topology.model",
      [
        case "axis link classification" test_axis_link_classification;
        case "uniform topology prices like the machine"
          test_uniform_step_time_identity;
      ] );
    ( "topology.uniform-gate",
      [
        case "rcost bitwise-identical under uniform topology"
          test_uniform_rcost_bitwise;
        case "CCSD plans byte-identical under uniform topology"
          test_uniform_plans_ccsd;
        case "corpus plans byte-identical under uniform topology (30 \
               instances)"
          test_uniform_plans_corpus;
      ] );
    ( "topology.rect-executor",
      [
        case "rectangular Cannon matches the sequential kernel"
          test_rect_multicore_matches_sequential;
        case "rectangular plan executes end-to-end" test_rect_plan_execution;
        case "node-aware replay matches the model"
          test_node_replay_matches_model;
      ] );
    ( "topology.properties",
      [
        case "1xP and Px1 price as pure shift chains"
          test_degenerate_shapes_are_shift_chains;
        case "node-aligned axis never costlier"
          test_node_aligned_axis_never_costlier;
      ] );
    ( "topology.shape",
      [
        case "shape candidates enumerate factorizations" test_shape_candidates;
        case "node-aware beats the uniform shape choice (acceptance)"
          test_node_aware_beats_uniform_choice;
        case "non-square processor counts plan end-to-end"
          test_non_square_procs;
      ] );
  ]
