(* A second workload, structurally different from the paper's: a
   chain-structured four-tensor product

     G[a,e,i] = sum[b,c,d,x,y] M1[a,b,x] M2[b,c,x,i] M3[c,d,y] M4[d,e,y]

   with large "virtual" spaces (a..e) and small "auxiliary" ones (x, y, i).
   (A batch index appearing on *both* sides of the optimal association
   would be a Hadamard-style contraction, which the generalized Cannon
   template excludes — the optimizer reports that clearly; here `i` rides
   along one branch only.) The pipeline is exercised end to end: operation minimization
   binarizes the product, the memory-constrained search plans it on two
   machine sizes, and the plan is validated numerically at reduced extents.

     dune exec examples/chain_term.exe *)

open Tce

let text =
  {|
extents a=384, b=384, c=384, d=384, e=384, x=48, y=48, i=24
G[a,e,i] = sum[b,c,d,x,y] M1[a,b,x] * M2[b,c,x,i] * M3[c,d,y] * M4[d,e,y]
|}

let () =
  let problem = Result.get_ok (Parser.parse text) in
  let ext = problem.Problem.extents in
  (* Operation minimization decides the association. *)
  let d = List.hd problem.Problem.defs in
  Format.printf "direct cost: %d flops@." (Opmin.naive_flops ext d);
  let tree = Result.get_ok (Opmin.optimize_to_tree problem) in
  Format.printf "optimized cost: %d flops@.@.%a@.@." (Tree.flops ext tree)
    Tree.pp tree;

  let params = Params.itanium_2003 in
  List.iter
    (fun procs ->
      let grid = Grid.create_exn ~procs in
      let rcost = Rcost.of_params params ~side:(Grid.side grid) in
      let cfg = Search.default_config ~grid ~params ~rcost () in
      match Search.optimize cfg ext tree with
      | Error msg -> Format.printf "P=%d: %s@.@." procs msg
      | Ok plan ->
        Format.printf "=== %d processors ===@.%a@.%s@.@." procs Table.pp
          (Exptables.plan_table plan)
          (Exptables.totals_line plan))
    [ 64; 16 ];

  (* Numeric validation at reduced extents on 4 processors. *)
  let small = Extents.scale ext ~factor_num:1 ~factor_den:32 ~min_extent:4 in
  let grid = Grid.create_exn ~procs:4 in
  let rcost = Rcost.of_params params ~side:(Grid.side grid) in
  let cfg = Search.default_config ~grid ~params ~rcost () in
  let plan = Result.get_ok (Search.optimize cfg small tree) in
  let seq = Result.get_ok (Tree.to_sequence tree) in
  let inputs = Sequence.random_inputs small ~seed:12321 seq in
  let reference = Sequence.eval small ~inputs seq in
  let got = Multicore.run_plan grid small plan ~inputs in
  Format.printf "execution on 4 domains matches reference: %b@."
    (Dense.equal_approx ~tol:1e-9 reference got)
