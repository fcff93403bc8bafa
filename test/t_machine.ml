(* Tests for the simulated cluster: clock accounting and plan replay
   against the analytic model. *)

open Tce
open Helpers

let uniform =
  Params.uniform ~name:"test" ~latency:0.01 ~bandwidth:1e8 ~flop_rate:1e9
    ~procs_per_node:2 ~mem_per_node_bytes:64e9

let test_cluster_shift_round () =
  let grid = Grid.create_exn ~procs:4 in
  let c = Cluster.create uniform grid in
  Cluster.shift_round_uniform c ~axis:1 ~bytes:1e6;
  (* One round of 1 MB at 100 MB/s + 10 ms latency. *)
  check_close ~ctx:"clock" 0.02 (Cluster.clock c);
  check_close ~ctx:"comm" 0.02 (Cluster.comm_seconds c);
  check_close ~ctx:"compute" 0.0 (Cluster.compute_seconds c)

let test_cluster_compute_and_barrier () =
  let grid = Grid.create_exn ~procs:4 in
  let c = Cluster.create uniform grid in
  (* Uneven compute: clocks diverge, barrier equalizes at the max. *)
  Cluster.compute c ~flops:(fun (z1, _) -> float_of_int (1 + z1) *. 1e9);
  check_close ~ctx:"critical path" 2.0 (Cluster.clock c);
  Cluster.barrier c;
  Cluster.compute_uniform c ~flops_per_proc:1e9;
  check_close ~ctx:"after barrier" 3.0 (Cluster.clock c)

let test_cluster_ragged_round () =
  let grid = Grid.create_exn ~procs:4 in
  let c = Cluster.create uniform grid in
  (* One processor sends a 10x larger block: the round's critical path is
     its transfer. *)
  Cluster.shift_round c ~axis:2 ~bytes:(fun (z1, z2) ->
      if (z1, z2) = (0, 0) then 1e7 else 1e6);
  check_close ~ctx:"critical path" 0.11 (Cluster.clock c)

let test_cluster_reset () =
  let grid = Grid.create_exn ~procs:4 in
  let c = Cluster.create uniform grid in
  Cluster.shift_round_uniform c ~axis:1 ~bytes:1e6;
  Cluster.reset c;
  check_close ~ctx:"reset" 0.0 (Cluster.clock c)

let test_measure_rotation () =
  let grid = Grid.create_exn ~procs:16 in
  check_close ~ctx:"4 rounds"
    (Params.rotation_time uniform ~side:4 ~bytes:(Units.bytes_of_words 1000))
    (Simulate.measure_rotation uniform grid ~axis:1 ~words:1000)

(* The discrete-event replay of a plan must agree exactly with the
   analytic objective when the grid divides every extent. *)
let test_replay_matches_model_divisible () =
  let problem, _, tree = ccsd ~scale:`Small (* 12/8/6 divisible by 2 *) in
  let ext = problem.Problem.extents in
  let grid, cfg = search_config 4 in
  ignore grid;
  let plan = get_ok ~ctx:"plan" (Search.optimize cfg ext tree) in
  let t = simulate params ext plan in
  check_close ~ctx:"comm equal" ~rel:1e-9 (Plan.comm_cost plan)
    t.Simulate.comm_seconds;
  check_close ~ctx:"compute equal" ~rel:1e-9 (Plan.compute_seconds plan)
    t.Simulate.compute_seconds

let test_replay_paper_scale () =
  let problem, _, tree = ccsd ~scale:`Paper in
  let ext = problem.Problem.extents in
  let _, cfg = search_config 16 in
  let plan = get_ok ~ctx:"plan" (Search.optimize cfg ext tree) in
  let t = simulate params ext plan in
  check_close ~ctx:"Table 2 replay" ~rel:1e-6 (Plan.comm_cost plan)
    t.Simulate.comm_seconds

(* Overlap is reporting-only: under [Overlap.none] the overlapped clock
   equals the serialized total (and the replayed clocks are identical to
   an overlap-free run), under [Overlap.perfect] it is bounded by the
   additive total above and the larger single clock below. *)
let test_simulate_overlap_bounds () =
  let problem, _, tree = ccsd ~scale:`Small in
  let ext = problem.Problem.extents in
  let _, cfg = search_config 4 in
  let plan = get_ok ~ctx:"plan" (Search.optimize cfg ext tree) in
  let params = Params.itanium_2003 in
  let base = Simulate.run_plan_exn params ext plan in
  check_close ~ctx:"none = additive"
    (base.Simulate.comm_seconds +. base.Simulate.compute_seconds)
    base.Simulate.overlapped_seconds;
  let perfect = Simulate.run_plan_exn ~overlap:Overlap.perfect params ext plan in
  (* The replay itself is untouched by the knob. *)
  check_close ~ctx:"comm unchanged" base.Simulate.comm_seconds
    perfect.Simulate.comm_seconds;
  check_close ~ctx:"compute unchanged" base.Simulate.compute_seconds
    perfect.Simulate.compute_seconds;
  let additive = perfect.Simulate.comm_seconds +. perfect.Simulate.compute_seconds in
  let larger =
    Float.max perfect.Simulate.comm_seconds perfect.Simulate.compute_seconds
  in
  if perfect.Simulate.overlapped_seconds > additive +. 1e-9 then
    Alcotest.failf "perfect overlap above additive: %g > %g"
      perfect.Simulate.overlapped_seconds additive;
  if perfect.Simulate.overlapped_seconds < larger -. 1e-9 then
    Alcotest.failf "perfect overlap below either clock: %g < %g"
      perfect.Simulate.overlapped_seconds larger;
  (* The plan-side analytic mirror obeys the same corner identity. *)
  check_close ~ctx:"plan none = total" (Plan.total_seconds plan)
    (Plan.overlapped_seconds plan);
  let po = Plan.overlapped_seconds ~overlap:Overlap.perfect plan in
  if po > Plan.total_seconds plan +. 1e-9 then
    Alcotest.fail "plan perfect overlap above serialized total"

let suite =
  [
    ( "machine.cluster",
      [
        case "shift round accounting" test_cluster_shift_round;
        case "compute and barrier" test_cluster_compute_and_barrier;
        case "ragged rounds take the critical path" test_cluster_ragged_round;
        case "reset" test_cluster_reset;
      ] );
    ( "machine.simulate",
      [
        case "measure_rotation = analytic" test_measure_rotation;
        case "replay = model (divisible extents)"
          test_replay_matches_model_divisible;
        case "replay = model (paper scale)" test_replay_paper_scale;
        case "overlapped timing bounds" test_simulate_overlap_bounds;
      ] );
  ]
