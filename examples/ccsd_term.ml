(* The paper's application example (section 4): a CCSD-like four-tensor
   term from NWChem,

     S_abij = sum_ck ( sum_df ( sum_el B_befl D_cdel ) C_dfjk ) A_acik

   with N_a..d = 480, N_e,f = 64, N_i..l = 32, on 64 and on 16 processors
   of the modeled Itanium cluster (4 GB/node, 2 procs/node).

     dune exec examples/ccsd_term.exe

   For each configuration this prints the optimizer's plan in the paper's
   table format, the comparison against the published Tables 1 and 2, the
   discrete-event simulator's replay of the plan, and what the two
   prior-work baselines would have done. *)

open Tce

let text =
  {|
extents a=480, b=480, c=480, d=480, e=64, f=64, i=32, j=32, k=32, l=32
T1[b,c,d,f] = sum[e,l] B[b,e,f,l] * D[c,d,e,l]
T2[b,c,j,k] = sum[d,f] T1[b,c,d,f] * C[d,f,j,k]
S[a,b,i,j]  = sum[c,k] T2[b,c,j,k] * A[a,c,i,k]
|}

(* A baseline is a (fusion mode, objective) setting of the one search. *)
let baseline mode cfg ext tree =
  let fusion_mode, objective = Baselines.of_mode mode in
  Result.map Search.tree_plan
    (Search.plan ext
       (Search.request ~objective
          (Search.Grid { cfg with Search.fusion_mode })
          (Search.Tree tree)))

let report_baseline name result =
  match result with
  | Error msg -> Format.printf "  %s: infeasible (%s)@." name msg
  | Ok plan ->
    Format.printf "  %s: communication %.1f s, memory/node %.2f GB@." name
      (Plan.comm_cost plan)
      (Plan.mem_per_node_bytes plan /. 1e9)

let () =
  let problem = Result.get_ok (Parser.parse text) in
  let ext = problem.Problem.extents in
  let seq = Result.get_ok (Problem.to_sequence problem) in
  let tree = Tree.fuse_mult_sum (Result.get_ok (Tree.of_sequence seq)) in
  let params = Params.itanium_2003 in
  List.iter
    (fun (procs, rows, totals, label) ->
      let grid = Grid.create_exn ~procs in
      let rcost = Rcost.of_params params ~side:(Grid.side grid) in
      let cfg = Search.default_config ~grid ~params ~rcost () in
      let plan = Result.get_ok (Search.optimize cfg ext tree) in
      Format.printf "=== %s: %d processors (%d nodes) ===@.@." label procs
        (procs / params.Params.procs_per_node);
      Format.printf "%a@.%s@.@." Table.pp (Exptables.plan_table plan)
        (Exptables.totals_line plan);
      Format.printf "against the published table:@.%a@.@.%a@.@." Table.pp
        (Exptables.comparison_table plan rows)
        Table.pp
        (Exptables.totals_comparison plan totals);
      let timing = Simulate.run_plan_exn params ext plan in
      Format.printf
        "discrete-event replay: %a (model predicted %.1f s comm)@.@."
        Simulate.pp_timing timing (Plan.comm_cost plan);
      Format.printf "baselines:@.";
      report_baseline "fusion-free distribution [16]  "
        (baseline `None cfg ext tree);
      report_baseline "memory-minimal fusion [14,15]  "
        (baseline `Memmin cfg ext tree);
      report_baseline "integrated search (this paper) "
        (baseline `All cfg ext tree);
      Format.printf "@.")
    [
      (64, Paperref.table1, Paperref.totals1, "Table 1");
      (16, Paperref.table2, Paperref.totals2, "Table 2");
    ]
