(* Fault injection and graceful degradation, end to end:

   1. optimize the paper's CCSD-like term for a healthy 4x4 grid;
   2. replay the plan on a simulated cluster with seeded faults —
      degraded links, straggler nodes, transient message loss — and a
      node crash injected halfway through the run;
   3. when the crash aborts the replay, replan on the surviving 3x3
      sub-grid and report the communication-cost delta.

   The fault model is deterministic: rerunning this example reproduces
   the same fault trace and the same timings, bit for bit. *)

open Tce

let ccsd_text =
  {|extents a=480, b=480, c=480, d=480, e=64, f=64, i=32, j=32, k=32, l=32
T1[b,c,d,f] = sum[e,l] B[b,e,f,l] * D[c,d,e,l]
T2[b,c,j,k] = sum[d,f] T1[b,c,d,f] * C[d,f,j,k]
S[a,b,i,j]  = sum[c,k] T2[b,c,j,k] * A[a,c,i,k]
|}

let or_die = function
  | Ok v -> v
  | Error msg ->
    Format.eprintf "error: %s@." msg;
    exit 1

let () =
  let problem = or_die (Parser.parse ccsd_text) in
  let tree =
    or_die
      (Result.bind (Problem.to_sequence problem) (fun seq ->
           Result.map Tree.fuse_mult_sum (Tree.of_sequence seq)))
  in
  let ext = problem.Problem.extents in
  let params = Params.itanium_2003 in
  let config_of grid =
    Search.default_config ~grid ~params
      ~rcost:(Rcost.of_params params ~side:(Grid.side grid))
      ()
  in
  let grid = Grid.create_exn ~procs:16 in
  let plan = or_die (Search.optimize (config_of grid) ext tree) in
  let healthy = Tce_error.get_ok (Simulate.run_plan params ext plan) in
  Format.printf "healthy plan on %a:@.  %a@.@." Grid.pp grid
    Simulate.pp_timing healthy;

  (* Seeded degradation with a crash injected at the halfway point. *)
  let seed = 2026 in
  let crash_rank = 5 in
  let crash_at = 0.5 *. healthy.Simulate.total_seconds in
  let spec =
    { (Fault.default ~seed) with Fault.crash = Some (crash_rank, crash_at) }
  in
  let faults = Fault.make spec grid in
  (match Simulate.run_plan ~faults params ext plan with
  | Ok t ->
    Format.printf "faulty replay finished before the crash: %a@."
      Simulate.pp_timing t
  | Error (Tce_error.Node_crashed { rank; at }) ->
    Format.printf "replay aborted: node %d crashed at t=%.1f s@.@." rank at;
    let req =
      Search.request (Search.Grid (config_of grid)) (Search.Tree tree)
    in
    let report = or_die (Degrade.replan ext req ~healthy:plan) in
    Format.printf "%a@.@." Degrade.pp_report report
  | Error e -> or_die (Error (Tce_error.to_string e)));
  Format.printf "%a@." Fault.pp_trace faults
