(* End-to-end pipeline tests: DSL text -> operation minimization ->
   memory-constrained search -> cost-model/simulator agreement -> numeric
   execution -> fused code generation, all cross-checked. *)

open Tce
open Helpers

(* A raw four-factor product (nothing pre-factored): the full pipeline has
   to discover the binary tree, plan it, and compute correct values. *)
let raw_product =
  {|
extents a=8, b=8, c=8, d=8, e=6, f=6, i=4, j=4, k=4, l=4
S[a,b,i,j] = sum[c,d,e,f,k,l] A[a,c,i,k] * B[b,e,f,l] * C[d,f,j,k] * D[c,d,e,l]
|}

let test_full_pipeline_raw_product () =
  let problem = get_ok ~ctx:"parse" (Parser.parse raw_product) in
  let ext = problem.Problem.extents in
  let tree = get_ok ~ctx:"opmin" (Opmin.optimize_to_tree problem) in
  Alcotest.(check int) "three contractions" 3
    (List.length (Tree.internal_nodes tree));
  let grid, cfg = search_config 4 in
  let plan = get_ok ~ctx:"search" (Search.optimize cfg ext tree) in
  (* Reference: evaluate the optimized tree sequentially. *)
  let seq = get_ok ~ctx:"seq" (Tree.to_sequence tree) in
  let inputs = Sequence.random_inputs ext ~seed:101 seq in
  let reference = Sequence.eval ext ~inputs seq in
  (* 1. Real domains. *)
  let mc = Multicore.run_plan grid ext plan ~inputs in
  Alcotest.(check bool) "multicore" true (Dense.equal_approx reference mc);
  (* 2. Timing: replay = model. *)
  let t = simulate params ext plan in
  check_close ~ctx:"comm replay" ~rel:1e-9 (Plan.comm_cost plan)
    t.Simulate.comm_seconds;
  (* 3. Fused code with the plan's own fusion choices. *)
  let fusions name =
    match
      List.find_map
        (fun (s : Plan.step) ->
          if Aref.name s.contraction.Contraction.out = name then
            Some s.Plan.fusion_out
          else None)
        plan.Plan.steps
    with
    | Some f -> f
    | None -> Index.Set.empty
  in
  let prog = get_ok ~ctx:"codegen" (Loopnest.generate tree ~fusions) in
  let fused = Interp.run_exn ext prog ~inputs in
  Alcotest.(check bool) "fused code" true (Dense.equal_approx reference fused)

(* A chain of three contractions with an intermediate consumed under a
   different distribution (exercises redistribution or orientation
   matching). *)
let test_chain_with_redistribution_pressure () =
  let text =
    {|
extents a=8, b=8, c=8, d=8, g=8, m=4
T[a,c,m] = sum[b] X[a,b] * Y[b,c,m]
U[c,m,d] = sum[a] T[a,c,m] * Z[a,d]
S[d,g]   = sum[c,m] U[c,m,d] * W[c,m,g]
|}
  in
  let problem = get_ok ~ctx:"parse" (Parser.parse text) in
  let ext = problem.Problem.extents in
  let seq = get_ok ~ctx:"seq" (Problem.to_sequence problem) in
  let tree = get_ok ~ctx:"tree" (Tree.of_sequence seq) in
  let grid, cfg = search_config 4 in
  let plan = get_ok ~ctx:"plan" (Search.optimize cfg ext tree) in
  let inputs = Sequence.random_inputs ext ~seed:55 seq in
  let reference = Sequence.eval ext ~inputs seq in
  let got = Multicore.run_plan grid ext plan ~inputs in
  Alcotest.(check bool) "values" true (Dense.equal_approx reference got)

(* Scaled-extent consistency: the optimizer's structural choices at paper
   scale also hold on the scaled-down instance used for validation (same
   shape, so the same fusion becomes necessary when memory shrinks
   proportionally). *)
let test_scaled_consistency () =
  let problem, _, tree = ccsd ~scale:`Paper in
  let ext = problem.Problem.extents in
  let _, cfg16 = search_config 16 in
  let _, cfg64 = search_config 64 in
  let p16 = get_ok ~ctx:"16" (Search.optimize cfg16 ext tree) in
  let p64 = get_ok ~ctx:"64" (Search.optimize cfg64 ext tree) in
  (* The paper's central claim, as an executable assertion: fewer
     processors => fusion forced => strictly more communication spent per
     word of data, and a higher communication fraction. *)
  Alcotest.(check bool) "comm fraction rises" true
    (Plan.comm_fraction p16 > Plan.comm_fraction p64);
  Alcotest.(check bool) "absolute communication rises" true
    (Plan.comm_cost p16 > Plan.comm_cost p64)

(* The characterization round-trips through disk and drives the search to
   the same plan. *)
let test_characterization_file_drives_search () =
  let problem, _, tree = ccsd ~scale:`Paper in
  let ext = problem.Problem.extents in
  let grid = Grid.create_exn ~procs:16 in
  let rcost = Rcost.of_params params ~side:(Grid.side grid) in
  let path = Filename.temp_file "tce_rcost_integration" ".txt" in
  get_ok ~ctx:"save" (Rcost.save rcost ~path);
  let loaded = get_ok ~ctx:"load" (Rcost.load ~path) in
  Sys.remove path;
  let cfg1 = Search.default_config ~grid ~params ~rcost () in
  let cfg2 = Search.default_config ~grid ~params ~rcost:loaded () in
  let p1 = get_ok ~ctx:"direct" (Search.optimize cfg1 ext tree) in
  let p2 = get_ok ~ctx:"from file" (Search.optimize cfg2 ext tree) in
  check_close ~ctx:"same cost" (Plan.comm_cost p1) (Plan.comm_cost p2)

(* The CLI's problem file format, exercised through a file on disk. *)
let test_parse_file () =
  let path = Filename.temp_file "tce_problem" ".tce" in
  Out_channel.with_open_text path (fun oc ->
      output_string oc (ccsd_text ~scale:`Tiny));
  let problem = get_ok ~ctx:"parse_file" (Parser.parse_file path) in
  Sys.remove path;
  Alcotest.(check int) "defs" 3 (List.length problem.Problem.defs);
  match Parser.parse_file "/nonexistent/problem.tce" with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "missing file accepted"

(* Randomized end-to-end property: random chain-shaped problems (random
   extents, optional spectator index, optional pre-summed auxiliary index),
   random memory limits — every feasible plan must execute, with its
   fusion structure, to the reference values and with the sliced
   rotations the model charges. *)
let test_random_chains_execute () =
  let rng = Prng.create ~seed:24680 in
  let executed = ref 0 in
  for _trial = 1 to 15 do
    let e () = 4 + Prng.int rng ~bound:4 in
    let with_r = Prng.bool rng in
    let text =
      Printf.sprintf
        {|
extents p0=%d, p1=%d, p2=%d, p3=%d, q=%d, r=%d
T1[p0,p2,q] = sum[p1%s] M1[p0,p1%s] * M2[p1,p2,q]
S[p0,p3,q]  = sum[p2] T1[p0,p2,q] * M3[p2,p3]
|}
        (e ()) (e ()) (e ()) (e ()) (e ()) (e ())
        (if with_r then ",r" else "")
        (if with_r then ",r" else "")
    in
    let problem = get_ok ~ctx:"parse" (Parser.parse text) in
    let ext = problem.Problem.extents in
    (* Through operation minimization: when M1 carries the extra summed
       index r, a leaf pre-summation appears in the tree. *)
    let tree = get_ok ~ctx:"opmin" (Opmin.optimize_to_tree problem) in
    let limit = Prng.float_range rng ~lo:30_000.0 ~hi:300_000.0 in
    let grid, cfg = search_config ~mem_limit_bytes:limit 4 in
    match Search.optimize cfg ext tree with
    | Error _ -> () (* infeasible under this random limit: fine *)
    | Ok plan ->
      incr executed;
      let seq = get_ok ~ctx:"seq" (Tree.to_sequence tree) in
      let inputs = Sequence.random_inputs ext ~seed:(7 * !executed) seq in
      let reference = Sequence.eval ext ~inputs seq in
      let st = Multicore.run_plan_stats grid ext plan ~inputs in
      if not (Dense.equal_approx ~tol:1e-9 reference st.Multicore.result) then
        Alcotest.failf "execution wrong for:%s" text;
      if st.Multicore.sliced_rotations <> msg_factors grid ext plan then
        Alcotest.failf "%d sliced rotations, the model charges %d, for:%s"
          st.Multicore.sliced_rotations (msg_factors grid ext plan) text;
      let t = simulate params ext plan in
      check_close ~ctx:"replay" ~rel:1e-6 (Plan.comm_cost plan)
        t.Simulate.comm_seconds
  done;
  Alcotest.(check bool) "several feasible trials" true (!executed >= 5)

let suite =
  [
    ( "integration",
      [
        case "raw product through the whole pipeline"
          test_full_pipeline_raw_product;
        case "chain with redistribution pressure"
          test_chain_with_redistribution_pressure;
        case "the paper's central claim, as an assertion"
          test_scaled_consistency;
        case "characterization file drives the search"
          test_characterization_file_drives_search;
        case "problem files from disk" test_parse_file;
        case "random chains execute correctly" test_random_chains_execute;
      ] );
  ]
