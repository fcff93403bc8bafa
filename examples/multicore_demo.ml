(* End-to-end numeric validation of an optimized plan against the naive
   einsum reference (ground truth), two ways:

   1. the plan executed on real OCaml 5 domains (one per processor),
      blocks exchanged through SPMD mailboxes along the Cannon schedule;
   2. the fused sequential code, interpreted with reduced-size
      temporaries.

   The CCSD-like term runs at validation extents (same shape as the
   paper's, scaled down so the whole thing takes seconds).

     dune exec examples/multicore_demo.exe *)

open Tce

let text =
  {|
extents a=12, b=12, c=12, d=12, e=8, f=8, i=6, j=6, k=6, l=6
T1[b,c,d,f] = sum[e,l] B[b,e,f,l] * D[c,d,e,l]
T2[b,c,j,k] = sum[d,f] T1[b,c,d,f] * C[d,f,j,k]
S[a,b,i,j]  = sum[c,k] T2[b,c,j,k] * A[a,c,i,k]
|}

let () =
  let problem = Result.get_ok (Parser.parse text) in
  let ext = problem.Problem.extents in
  let seq = Result.get_ok (Problem.to_sequence problem) in
  let tree = Tree.fuse_mult_sum (Result.get_ok (Tree.of_sequence seq)) in
  let params = Params.itanium_2003 in
  let grid = Grid.create_exn ~procs:4 in
  let rcost = Rcost.of_params params ~side:(Grid.side grid) in
  let cfg = Search.default_config ~grid ~params ~rcost () in
  let plan = Result.get_ok (Search.optimize cfg ext tree) in
  Format.printf "plan found (%d steps), validating on a %a...@."
    (List.length plan.Plan.steps)
    Grid.pp grid;

  let inputs = Sequence.random_inputs ext ~seed:2026 seq in
  let reference = Sequence.eval ext ~inputs seq in

  let parallel = Multicore.run_plan grid ext plan ~inputs in
  Format.printf "multicore (4 domains) execution matches reference:  %b@."
    (Dense.equal_approx ~tol:1e-9 reference parallel);

  let mm = Memmin.minimize ext tree in
  let fusions name =
    Index.set_of_list
      (Option.value ~default:[] (List.assoc_opt name mm.Memmin.edge_fusions))
  in
  let prog = Result.get_ok (Loopnest.generate tree ~fusions) in
  let fused = Interp.run_exn ext prog ~inputs in
  Format.printf "fused sequential code matches reference:            %b@."
    (Dense.equal_approx ~tol:1e-9 reference fused);
  Format.printf
    "fused temporaries: %d words (unfused intermediates would need %d)@."
    (Loopnest.temporary_words ext prog)
    (let unfused = Result.get_ok (Loopnest.generate_unfused tree) in
     Loopnest.temporary_words ext unfused)
