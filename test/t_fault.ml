(* Tests for the fault model: determinism of the seeded traces, the
   monotone effect of each fault class on simulated timing, crash
   detection, and degraded-grid replanning. *)

open Tce
open Helpers

let small_plan procs =
  let problem, _, tree = ccsd ~scale:`Small in
  let ext = problem.Problem.extents in
  let grid, cfg = search_config procs in
  let plan = get_ok ~ctx:"plan" (Search.optimize cfg ext tree) in
  (grid, ext, tree, plan)

(* Same seed => bit-identical fault trace and simulated timing. *)
let test_deterministic_trace_and_timing () =
  let grid, ext, _, plan = small_plan 4 in
  let spec =
    {
      (Fault.default ~seed:7) with
      Fault.msg_loss_prob = 0.05;
      retry_timeout_s = 0.01;
    }
  in
  let run () =
    let faults = Fault.make spec grid in
    let t = simulate ~faults params ext plan in
    (t, Fault.trace faults)
  in
  let t1, tr1 = run () in
  let t2, tr2 = run () in
  Alcotest.(check bool) "timing bit-identical" true (t1 = t2);
  Alcotest.(check int) "same trace length" (List.length tr1)
    (List.length tr2);
  List.iter2
    (fun a b ->
      if not (Fault.event_equal a b) then
        Alcotest.failf "trace diverged: %a vs %a" Fault.pp_event a
          Fault.pp_event b)
    tr1 tr2;
  Alcotest.(check bool) "trace nonempty" true (tr1 <> [])

(* The all-healthy fault model is an exact no-op. *)
let test_healthy_model_is_identity () =
  let grid, ext, _, plan = small_plan 4 in
  let bare = simulate params ext plan in
  let faults = Fault.make Fault.healthy grid in
  let modeled = simulate ~faults params ext plan in
  Alcotest.(check bool) "identical timing" true (bare = modeled);
  Alcotest.(check (list string)) "no events" []
    (List.map (Format.asprintf "%a" Fault.pp_event) (Fault.trace faults))

(* Slower stragglers can only lengthen the run. *)
let test_straggler_monotonicity () =
  let grid, ext, _, plan = small_plan 4 in
  let total factor =
    let spec =
      { Fault.healthy with Fault.straggler_prob = 1.0; straggler_factor = factor }
    in
    let faults = Fault.make { spec with Fault.seed = 11 } grid in
    (simulate ~faults params ext plan).Simulate.total_seconds
  in
  let t1 = total 1.0 and t2 = total 1.5 and t3 = total 3.0 in
  Alcotest.(check bool) "1.0 <= 1.5" true (t1 <= t2);
  Alcotest.(check bool) "1.5 <= 3.0" true (t2 < t3);
  (* With every rank straggling uniformly, compute scales exactly. *)
  let healthy = simulate params ext plan in
  check_close ~ctx:"compute x3"
    (3.0 *. healthy.Simulate.compute_seconds)
    (let spec =
       { Fault.healthy with Fault.straggler_prob = 1.0; straggler_factor = 3.0 }
     in
     (simulate ~faults:(Fault.make spec grid) params ext plan)
       .Simulate.compute_seconds)

(* Degrading every link by 2x doubles shift-round time (redistributions,
   charged as uniform delays, are unscaled). *)
let test_link_degradation_slows_comm () =
  let grid, ext, _, plan = small_plan 4 in
  let healthy = simulate params ext plan in
  let spec =
    {
      Fault.healthy with
      Fault.link_degrade_prob = 1.0;
      link_degrade_factor = 2.0;
    }
  in
  let degraded = simulate ~faults:(Fault.make spec grid) params ext plan in
  Alcotest.(check bool) "comm strictly slower" true
    (degraded.Simulate.comm_seconds > healthy.Simulate.comm_seconds);
  Alcotest.(check bool) "at most doubled" true
    (degraded.Simulate.comm_seconds
    <= (2.0 *. healthy.Simulate.comm_seconds) +. 1e-9);
  check_float "compute untouched" healthy.Simulate.compute_seconds
    degraded.Simulate.compute_seconds

(* Transient message loss charges retry delays and records every lost
   attempt. *)
let test_message_loss_adds_delay () =
  let grid, ext, _, plan = small_plan 4 in
  let healthy = simulate params ext plan in
  let spec =
    {
      (Fault.default ~seed:3) with
      Fault.link_degrade_prob = 0.0;
      straggler_prob = 0.0;
      msg_loss_prob = 0.2;
      retry_timeout_s = 0.01;
    }
  in
  let faults = Fault.make spec grid in
  let lossy = simulate ~faults params ext plan in
  let lost =
    List.filter
      (function Fault.Message_lost _ -> true | _ -> false)
      (Fault.trace faults)
  in
  Alcotest.(check bool) "losses recorded" true (lost <> []);
  Alcotest.(check bool) "run got slower" true
    (lossy.Simulate.comm_seconds > healthy.Simulate.comm_seconds)

(* A crash interrupts the replay with the typed error, and the planner
   recovers on the next-smaller grid at a finite, larger communication
   cost (paper-scale extents: bandwidth-dominated, so fewer processors
   means more communication). *)
let test_crash_and_degraded_replan () =
  let problem, _, tree = ccsd ~scale:`Paper in
  let ext = problem.Problem.extents in
  let grid, cfg = search_config 16 in
  let plan = get_ok ~ctx:"plan" (Search.optimize cfg ext tree) in
  let healthy = simulate params ext plan in
  let crash_at = 0.5 *. healthy.Simulate.total_seconds in
  let spec = { Fault.healthy with Fault.crash = Some (5, crash_at) } in
  let faults = Fault.make spec grid in
  (match Simulate.run_plan ~faults params ext plan with
  | Error (Tce_error.Node_crashed { rank; at }) ->
    Alcotest.(check int) "crashed rank" 5 rank;
    check_float "crash time" crash_at at
  | Ok _ -> Alcotest.fail "crash not detected"
  | Error e -> Alcotest.failf "wrong error: %s" (Tce_error.to_string e));
  Alcotest.(check bool) "crash in trace" true
    (List.exists
       (function Fault.Node_crashed _ -> true | _ -> false)
       (Fault.trace faults));
  let req = Search.request (Search.Grid cfg) (Search.Tree tree) in
  let report = get_ok ~ctx:"replan" (Degrade.replan ext req ~healthy:plan) in
  Alcotest.(check int) "3x3 survivor grid" 9
    (Grid.procs report.Degrade.degraded_grid);
  let d = Plan.comm_cost report.Degrade.degraded in
  Alcotest.(check bool) "degraded cost finite" true (Float.is_finite d);
  Alcotest.(check bool) "degraded >= healthy" true
    (d >= Plan.comm_cost plan);
  check_close ~ctx:"delta" (d -. Plan.comm_cost plan)
    report.Degrade.comm_delta

(* Topology-aware degradation (DESIGN.md §17): losing one whole node no
   longer forces the next-smaller square — the replan searches every
   factorization of the surviving rank count. 12 ranks at 2 procs/node
   leave 10 survivors, a count with no square grid at all; the replanned
   rectangular plan must validate and still replay on the simulator. *)
let test_rectangular_survivor_replan () =
  let problem, _, tree = ccsd ~scale:`Small in
  let ext = problem.Problem.extents in
  let topo = Topology.uniform params (* itanium: 2 procs/node *) in
  let grid = Grid.create_rect_exn ~rows:1 ~cols:12 in
  let base =
    Search.default_config ~grid ~params ~rcost:(Rcost.of_topology topo grid) ()
  in
  let req =
    Search.request (Search.Shapes { topo; procs = 12; base }) (Search.Tree tree)
  in
  let healthy =
    Search.tree_plan (get_ok ~ctx:"healthy" (Search.plan ext req))
  in
  Alcotest.(check int) "healthy uses 12 ranks" 12
    (Grid.procs healthy.Plan.grid);
  Alcotest.(check int) "survivors = 12 - 2" 10
    (get_ok ~ctx:"survivor_procs"
       (Degrade.survivor_procs topo healthy.Plan.grid));
  let report = get_ok ~ctx:"replan" (Degrade.replan ext req ~healthy) in
  let g = report.Degrade.degraded_grid in
  Alcotest.(check int) "degraded grid uses all 10 survivors" 10 (Grid.procs g);
  Alcotest.(check bool) "10 ranks admit no square" false (Grid.is_square g);
  (match Plan.validate report.Degrade.degraded with
  | Ok () -> ()
  | Error e -> Alcotest.failf "degraded plan fails validation: %s" e);
  let timing = simulate params ext report.Degrade.degraded in
  Alcotest.(check bool) "degraded plan simulates" true
    (timing.Simulate.total_seconds > 0.0);
  Alcotest.(check bool) "degraded cost finite" true
    (Float.is_finite (Plan.comm_cost report.Degrade.degraded));
  check_close ~ctx:"delta"
    (Plan.comm_cost report.Degrade.degraded -. Plan.comm_cost healthy)
    report.Degrade.comm_delta

let test_survivor_grid_edges () =
  let g1 = Grid.create_exn ~procs:1 in
  (match Degrade.survivor_grid g1 with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "1x1 grid has no survivor");
  let g16 = Grid.create_exn ~procs:16 in
  Alcotest.(check int) "16 -> 9" 9
    (Grid.procs (get_ok ~ctx:"survivor" (Degrade.survivor_grid g16)))

(* The typed error surface replaces the old invalid_arg aborts. *)
let test_typed_errors () =
  let grid = Grid.create_exn ~procs:4 in
  let c = Cluster.create params grid in
  (match Cluster.advance_comm_uniform c ~seconds:(-1.0) with
  | Error (Tce_error.Negative_time _) -> ()
  | Ok () -> Alcotest.fail "negative delay accepted"
  | Error e -> Alcotest.failf "wrong error: %s" (Tce_error.to_string e));
  (match Cluster.advance_comm_uniform c ~seconds:1.5 with
  | Ok () -> check_close ~ctx:"clock advanced" 1.5 (Cluster.clock c)
  | Error e -> Alcotest.failf "unexpected error: %s" (Tce_error.to_string e));
  Alcotest.(check string) "pp round-trip" "node 3 crashed at simulated time 2.000 s"
    (Tce_error.to_string (Tce_error.Node_crashed { rank = 3; at = 2.0 }))

(* The trace cap is diagnostic-only: a tiny cap keeps the bounded prefix,
   counts the rest as dropped, and leaves every random draw — hence the
   simulated timing — bit-identical to the uncapped run. *)
let test_trace_cap () =
  let grid, ext, _, plan = small_plan 4 in
  let lossy limit =
    {
      (Fault.default ~seed:5) with
      Fault.msg_loss_prob = 0.5;
      retry_timeout_s = 0.005;
      trace_limit = limit;
    }
  in
  let run limit =
    let faults = Fault.make (lossy limit) grid in
    let t = simulate ~faults params ext plan in
    (t, Fault.trace faults, Fault.dropped_events faults, faults)
  in
  let t_full, tr_full, dropped_full, _ = run 1_000_000 in
  Alcotest.(check int) "uncapped run drops nothing" 0 dropped_full;
  Alcotest.(check bool) "enough events to exercise the cap" true
    (List.length tr_full > 8);
  let t_capped, tr_capped, dropped, capped_faults = run 8 in
  Alcotest.(check int) "capped trace length" 8 (List.length tr_capped);
  Alcotest.(check int) "everything else counted as dropped"
    (List.length tr_full - 8)
    dropped;
  Alcotest.(check bool) "timing unaffected by the cap" true
    (t_full = t_capped);
  (* The kept prefix is the chronological prefix of the full trace. *)
  List.iteri
    (fun j e ->
      if not (Fault.event_equal e (List.nth tr_full j)) then
        Alcotest.failf "capped trace diverges at event %d" j)
    tr_capped;
  let rendered = Format.asprintf "%a" Fault.pp_trace capped_faults in
  Alcotest.(check bool) "pp_trace reports the drop" true
    (Astring_contains.contains rendered "dropped")

let test_trace_cap_spec () =
  Alcotest.(check int) "healthy default cap" 10_000
    Fault.healthy.Fault.trace_limit;
  Alcotest.(check int) "seeded default cap" 10_000
    (Fault.default ~seed:1).Fault.trace_limit;
  (match Fault.validate { Fault.healthy with Fault.trace_limit = -1 } with
  | Error _ -> ()
  | Ok () -> Alcotest.fail "negative cap accepted");
  (* A zero cap records nothing but still counts. *)
  let grid, ext, _, plan = small_plan 4 in
  let spec =
    {
      (Fault.default ~seed:5) with
      Fault.msg_loss_prob = 0.5;
      retry_timeout_s = 0.005;
      trace_limit = 0;
    }
  in
  let faults = Fault.make spec grid in
  ignore (simulate ~faults params ext plan);
  Alcotest.(check (list string)) "empty trace" []
    (List.map (Format.asprintf "%a" Fault.pp_event) (Fault.trace faults));
  Alcotest.(check bool) "drops counted" true
    (Fault.dropped_events faults > 0)

(* Determinism holds per seed across the whole seed range, not just for
   one lucky value: each seed reproduces its own trace and timing, and
   distinct seeds genuinely produce distinct traces. *)
let test_multi_seed_determinism () =
  let grid, ext, _, plan = small_plan 4 in
  let run seed =
    let spec =
      {
        (Fault.default ~seed) with
        Fault.msg_loss_prob = 0.1;
        straggler_prob = 0.3;
        straggler_factor = 1.7;
        retry_timeout_s = 0.01;
      }
    in
    let faults = Fault.make spec grid in
    let t = simulate ~faults params ext plan in
    (t, Fault.trace faults)
  in
  let seeds = [ 1; 5; 9; 13; 21 ] in
  let fingerprints =
    List.map
      (fun seed ->
        let t1, tr1 = run seed in
        let t2, tr2 = run seed in
        Alcotest.(check bool)
          (Printf.sprintf "seed %d: timing reproducible" seed)
          true (t1 = t2);
        Alcotest.(check int)
          (Printf.sprintf "seed %d: trace length reproducible" seed)
          (List.length tr1) (List.length tr2);
        List.iter2
          (fun a b ->
            if not (Fault.event_equal a b) then
              Alcotest.failf "seed %d: trace diverged" seed)
          tr1 tr2;
        Format.asprintf "%a" Simulate.pp_timing t1)
      seeds
  in
  let distinct = List.sort_uniq compare fingerprints in
  Alcotest.(check bool) "different seeds differ" true
    (List.length distinct > 1)

let test_spec_validation () =
  let bad = { Fault.healthy with Fault.msg_loss_prob = 1.5 } in
  (match Fault.validate bad with
  | Error _ -> ()
  | Ok () -> Alcotest.fail "bad spec accepted");
  let grid = Grid.create_exn ~procs:4 in
  match Fault.make { Fault.healthy with Fault.crash = Some (99, 1.0) } grid with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "crash rank outside the grid accepted"

let suite =
  [
    ( "fault.model",
      [
        case "same seed, same trace and timing"
          test_deterministic_trace_and_timing;
        case "healthy model is the identity" test_healthy_model_is_identity;
        case "straggler slowdown is monotone" test_straggler_monotonicity;
        case "link degradation slows communication"
          test_link_degradation_slows_comm;
        case "message loss adds retry delay" test_message_loss_adds_delay;
        case "trace cap bounds memory, not behavior" test_trace_cap;
        case "trace cap spec and zero-cap edge" test_trace_cap_spec;
        case "determinism across seeds" test_multi_seed_determinism;
        case "spec validation" test_spec_validation;
      ] );
    ( "fault.degrade",
      [
        case "crash aborts replay; replan on 3x3"
          test_crash_and_degraded_replan;
        case "rectangular survivors: 12 ranks - node -> 10-rank grid"
          test_rectangular_survivor_replan;
        case "survivor grid edges" test_survivor_grid_edges;
        case "typed error surface" test_typed_errors;
      ] );
  ]
