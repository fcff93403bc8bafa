(* Tests for the integrated memory-constrained communication minimization
   algorithm — the paper's contribution. *)

open Tce
open Helpers

let paper_plan procs =
  let problem, _, tree = ccsd ~scale:`Paper in
  let _, cfg = search_config procs in
  (problem, get_ok ~ctx:"optimize" (Search.optimize cfg problem.Problem.extents tree))

(* Table 1: on 64 processors nothing is fused and total communication is
   ~98 s (7% of ~1400 s). *)
let test_table1_shape () =
  let _, plan = paper_plan 64 in
  check_close ~ctx:"comm" ~rel:0.02 98.0 (Plan.comm_cost plan);
  check_close ~ctx:"total" ~rel:0.02 1403.4 (Plan.total_seconds plan);
  Alcotest.(check bool) "comm fraction ~7%" true
    (Float.abs (Plan.comm_fraction plan -. 0.070) < 0.005);
  List.iter
    (fun (s : Plan.step) ->
      Alcotest.(check bool) "no fusion" true
        (Index.Set.is_empty s.fusion_out
        && Index.Set.is_empty s.fusion_left
        && Index.Set.is_empty s.fusion_right))
    plan.Plan.steps;
  Alcotest.(check bool) "fits" true (Plan.fits_memory plan)

(* Table 2: on 16 processors the f loop is fused, T1 reduces to (b,c,d),
   and communication jumps to ~1900 s (~27%). *)
let test_table2_shape () =
  let _, plan = paper_plan 16 in
  check_close ~ctx:"comm" ~rel:0.02 1907.8 (Plan.comm_cost plan);
  check_close ~ctx:"total" ~rel:0.02 6983.8 (Plan.total_seconds plan);
  Alcotest.(check bool) "comm fraction ~27%" true
    (Float.abs (Plan.comm_fraction plan -. 0.273) < 0.02);
  let row = Option.get (Plan.find_row plan "T1") in
  Alcotest.(check (list string)) "T1 reduced to (b,c,d)" [ "b"; "c"; "d" ]
    (List.map Index.name row.Plan.reduced_dims);
  (* T1 is rotated once per f iteration in both of its contractions:
     ~900 s each way. *)
  check_close ~ctx:"T1 init" ~rel:0.05 900.0 row.Plan.comm_initial;
  check_close ~ctx:"T1 final" ~rel:0.05 900.0 row.Plan.comm_final;
  Alcotest.(check bool) "fits" true (Plan.fits_memory plan)

let test_table2_memory_rows () =
  let _, plan = paper_plan 16 in
  List.iter
    (fun (name, mb) ->
      let row = Option.get (Plan.find_row plan name) in
      check_close ~ctx:name ~rel:0.01 mb
        (Units.paper_mb_of_words
           (row.Plan.stored_words * params.Params.procs_per_node)))
    [ ("D", 460.8); ("T1", 108.0); ("T2", 230.4); ("S", 230.4); ("A", 230.4) ]

(* The optimum under a loose memory limit is the unfused plan and it
   dominates the constrained one. *)
let test_memory_monotone () =
  let problem, _, tree = ccsd ~scale:`Paper in
  let ext = problem.Problem.extents in
  let costs =
    List.map
      (fun gb ->
        let _, cfg = search_config ~mem_limit_bytes:(gb *. 1e9) 16 in
        match Search.optimize cfg ext tree with
        | Ok plan -> Plan.comm_cost plan
        | Error _ -> Float.infinity)
      [ 1.5; 2.0; 16.0 ]
  in
  match costs with
  | [ tight; medium; loose ] ->
    Alcotest.(check bool) "tighter memory, more communication" true
      (tight >= medium && medium >= loose);
    Alcotest.(check bool) "all finite" true (tight < Float.infinity)
  | _ -> assert false

let test_infeasible_reports_error () =
  let problem, _, tree = ccsd ~scale:`Paper in
  let _, cfg = search_config ~mem_limit_bytes:1e8 16 in
  ignore (get_error ~ctx:"tiny memory" (Search.optimize cfg problem.Problem.extents tree))

let test_fusion_free_infeasible_at_16 () =
  let problem, _, tree = ccsd ~scale:`Paper in
  let ext = problem.Problem.extents in
  let _, cfg = search_config 16 in
  ignore (get_error ~ctx:"fusion-free" (baseline `None cfg ext tree));
  (* ... but feasible at 64 processors, where it matches the integrated
     search (no fusion is needed there). *)
  let _, cfg64 = search_config 64 in
  let free = get_ok ~ctx:"free@64" (baseline `None cfg64 ext tree) in
  let integrated = get_ok ~ctx:"int@64" (baseline `All cfg64 ext tree) in
  check_close ~ctx:"same optimum" (Plan.comm_cost integrated) (Plan.comm_cost free)

let test_memmin_baseline_worse () =
  let problem, _, tree = ccsd ~scale:`Paper in
  let ext = problem.Problem.extents in
  let _, cfg = search_config 16 in
  let memfirst = get_ok ~ctx:"memmin" (baseline `Memmin cfg ext tree) in
  let integrated = get_ok ~ctx:"integrated" (baseline `All cfg ext tree) in
  Alcotest.(check bool) "integrated communicates no more" true
    (Plan.comm_cost integrated <= Plan.comm_cost memfirst +. 1e-9);
  Alcotest.(check bool) "and strictly less here" true
    (Plan.comm_cost integrated < Plan.comm_cost memfirst);
  Alcotest.(check bool) "baseline uses no more memory" true
    (Plan.mem_per_node_bytes memfirst
    <= Plan.mem_per_node_bytes integrated +. 1.0)

(* Optimal against brute force on small problems (pruning-soundness). *)
let test_optimize_equals_brute_force () =
  let texts =
    [
      {|
extents a=8, b=8, c=8, k=8, m=8
T[a,c] = sum[k] X[a,k] * Y[k,c]
S[a,m] = sum[c] T[a,c] * Z[c,m]
|};
      {|
extents a=6, b=6, c=4, d=4, k=4
T[a,b,c] = sum[k] X[a,k,c] * Y[k,b]
S[a,d]   = sum[b,c] T[a,b,c] * Z[b,c,d]
|};
    ]
  in
  List.iter
    (fun text ->
      let problem = get_ok ~ctx:"parse" (Parser.parse text) in
      let seq = get_ok ~ctx:"seq" (Problem.to_sequence problem) in
      let tree = get_ok ~ctx:"tree" (Tree.of_sequence seq) in
      let ext = problem.Problem.extents in
      let _, cfg = search_config 4 in
      let opt = get_ok ~ctx:"opt" (Search.optimize cfg ext tree) in
      let brute = get_ok ~ctx:"brute" (brute_force_tree cfg ext tree) in
      check_close ~ctx:"same optimum" (Plan.comm_cost brute)
        (Plan.comm_cost opt))
    texts

let test_grid_mismatch_error () =
  let problem, _, tree = ccsd ~scale:`Paper in
  let grid = Grid.create_exn ~procs:16 in
  let rcost = Rcost.of_params params ~side:8 (* wrong side *) in
  let cfg = Search.default_config ~grid ~params ~rcost () in
  ignore (get_error ~ctx:"mismatch" (Search.optimize cfg problem.Problem.extents tree))

let test_rejects_hadamard_tree () =
  let p =
    get_ok ~ctx:"parse"
      (Parser.parse
         {|
extents j=4, t=4, j2=4, k=4
T1[j,t] = sum[j2] A[j2,j,t]
T2[j,t] = sum[k] B[j,k,t]
T3[j,t] = T1[j,t] * T2[j,t]
S[j,t]  = T3[j,t] * C[j,t]
|})
  in
  let seq = get_ok ~ctx:"seq" (Problem.to_sequence p) in
  let tree = get_ok ~ctx:"tree" (Tree.of_sequence seq) in
  let _, cfg = search_config 4 in
  ignore (get_error ~ctx:"hadamard" (Search.optimize cfg p.Problem.extents tree))

let test_solution_count_small () =
  let problem, _, tree = ccsd ~scale:`Paper in
  let _, cfg = search_config 16 in
  let n = get_ok ~ctx:"count" (Search.solution_count cfg problem.Problem.extents tree) in
  Alcotest.(check bool) "pruning keeps the set small" true (n > 0 && n < 2000);
  Alcotest.(check int) "pinned count" 12 n

(* The redistribution path: force a producer/consumer distribution clash
   and check a redistribution is planned and costed. *)
let test_redistribution_used () =
  let problem, _, tree = ccsd ~scale:`Paper in
  let ext = problem.Problem.extents in
  let _, cfg = search_config 64 in
  (* With free redistribution the optimizer cannot do worse. *)
  let free = { cfg with Search.redist_factor = 0.0 } in
  let p_free = get_ok ~ctx:"free" (Search.optimize free ext tree) in
  let p_base = get_ok ~ctx:"base" (Search.optimize cfg ext tree) in
  Alcotest.(check bool) "free redistribution never hurts" true
    (Plan.comm_cost p_free <= Plan.comm_cost p_base +. 1e-9)

let test_fixed_fusion_mode () =
  let problem, _, tree = ccsd ~scale:`Paper in
  let ext = problem.Problem.extents in
  let _, cfg =
    search_config
      ~fusion_mode:(Search.Fixed [ ("T1", Index.set_of_list [ i "f" ]) ])
      16
  in
  let plan = get_ok ~ctx:"fixed" (Search.optimize cfg ext tree) in
  let row = Option.get (Plan.find_row plan "T1") in
  Alcotest.(check (list string)) "T1 fused exactly {f}" [ "b"; "c"; "d" ]
    (List.map Index.name row.Plan.reduced_dims)

(* Pre-summations: trees where operation minimization pushed a summation
   down onto an input (paper Fig. 1 style) are planned with local
   reductions and no extra communication. *)
let test_presummed_inputs () =
  let text =
    {|
extents a=16, b=16, k=12, x=8
S[a,b] = sum[k,x] X[a,k,x] * Y[k,b]
|}
  in
  let problem = get_ok ~ctx:"parse" (Parser.parse text) in
  let ext = problem.Problem.extents in
  (* Opmin pre-sums x out of X before the contraction. *)
  let tree = get_ok ~ctx:"opmin" (Opmin.optimize_to_tree problem) in
  let has_presum =
    match tree with
    | Tree.Contract (_, _, Tree.Sum (_, _, Tree.Leaf _), _)
    | Tree.Contract (_, _, _, Tree.Sum (_, _, Tree.Leaf _)) -> true
    | _ -> false
  in
  Alcotest.(check bool) "tree has a leaf pre-summation" true has_presum;
  let grid, cfg = search_config 4 in
  let plan = get_ok ~ctx:"plan" (Search.optimize cfg ext tree) in
  Alcotest.(check int) "one presum" 1 (List.length plan.Plan.presums);
  Alcotest.(check int) "one contraction" 1 (List.length plan.Plan.steps);
  (* Numeric agreement with the reference. *)
  let seq = get_ok ~ctx:"seq" (Tree.to_sequence tree) in
  let inputs = Sequence.random_inputs ext ~seed:71 seq in
  let reference = Sequence.eval ext ~inputs seq in
  let got = Multicore.run_plan grid ext plan ~inputs in
  Alcotest.(check bool) "executed" true (Dense.equal_approx reference got);
  (* The presummed array's production is communication-free (it may still
     be rotated later, as a contraction operand). *)
  let row = Option.get (Plan.find_row plan "S__1") in
  check_close ~ctx:"local production" 0.0 row.Plan.comm_initial;
  (* The replay includes the presum's local flops. *)
  let t = simulate params ext plan in
  check_close ~ctx:"replay comm" ~rel:1e-9 (Plan.comm_cost plan)
    t.Simulate.comm_seconds

(* Property: on randomly sized instances, with random memory limits, the
   pruned DP returns exactly the brute-force optimum (or both are
   infeasible). This is the soundness certificate for the paper's
   "inferior solution" pruning. *)
let test_random_instances_match_brute_force () =
  let rng = Prng.create ~seed:987654 in
  for _trial = 1 to 25 do
    let e name lo hi = (name, lo + Prng.int rng ~bound:(hi - lo + 1)) in
    let bindings =
      [ e "a" 4 10; e "b" 4 10; e "c" 2 8; e "d" 2 8; e "k" 2 8 ]
    in
    let text =
      Printf.sprintf
        {|
extents %s
T[a,b,c] = sum[k] X[a,k,c] * Y[k,b]
S[a,d]   = sum[b,c] T[a,b,c] * Z[b,c,d]
|}
        (String.concat ", "
           (List.map (fun (n, v) -> Printf.sprintf "%s=%d" n v) bindings))
    in
    let problem = get_ok ~ctx:"parse" (Parser.parse text) in
    let ext = problem.Problem.extents in
    let seq = get_ok ~ctx:"seq" (Problem.to_sequence problem) in
    let tree = get_ok ~ctx:"tree" (Tree.of_sequence seq) in
    let limit =
      (* Between severely constrained and unconstrained. *)
      Prng.float_range rng ~lo:20_000.0 ~hi:400_000.0
    in
    let _, cfg = search_config ~mem_limit_bytes:limit 4 in
    match (Search.optimize cfg ext tree, brute_force_tree cfg ext tree) with
    | Error _, Error _ -> ()
    | Ok opt, Ok brute ->
      if Float.abs (Plan.comm_cost opt -. Plan.comm_cost brute) > 1e-9 then
        Alcotest.failf "limit %.0f: pruned %.6f vs brute %.6f" limit
          (Plan.comm_cost opt) (Plan.comm_cost brute)
    | Ok _, Error msg -> Alcotest.failf "brute infeasible but DP not: %s" msg
    | Error msg, Ok _ -> Alcotest.failf "DP infeasible but brute not: %s" msg
  done

(* Pinned search output: the undominated root-solution count and an MD5
   of the rendered plan, as literals, on the paper's CCSD, the
   repeated-subexpression problem, the fast chain and seconds-scale
   einsum of the bench corpus, three seeded fuzz batches (one count
   total and one digest over each batch's per-instance count and plan)
   and one seeded sum. Any change to the DP's enumeration, legality,
   costing, pruning or tie-break order shows up here as a changed
   literal. *)
let plan_digest text = Digest.to_hex (Digest.string text)

let pinned =
  [
    "ccsd-paper-p16 12 d765cf2231ac85da8b66af058ff890c6";
    "ccsd-paper-p64 32 d4e9a08dba4fab5eecb5675651745274";
    "cse 1 e67213082787e2b119dd168c267f83ef";
    "chain-16 1 1761ece162df344d14728e9fc8d1b0cb";
    "einsum-7t-r7 54 ed516f1364cceb4e6cd7df245f268535";
    "fuzz-seed-1 93 d98c9b39977e1b633f5f892bf36620e4";
    "fuzz-seed-2 109 d11395efbf506b3817048811bd9fd71e";
    "fuzz-seed-3 97 713d8bd08fab5fbf50696689722bcc12";
    "sum-3t-seed-1 9f1e7536267de505cc87865b0b5fdbe9";
  ]

let cse_text =
  {|extents a=64, b=64, c=64, k=64
T1[a,b] = sum[k] X[a,k] * Y[k,b]
T2[a,c] = sum[b] T1[a,b] * W[b,c]
T3[a,b] = sum[k] X[a,k] * Y[k,b]
S[c,b] = sum[a] T2[a,c] * T3[a,b]
|}

(* (count, rendered plan) of one tree on the P-processor paper machine. *)
let count_and_plan procs ext tree =
  let _, cfg = search_config procs in
  let count = get_ok ~ctx:"count" (Search.solution_count cfg ext tree) in
  let plan =
    match Search.optimize cfg ext tree with
    | Ok p -> Format.asprintf "%a" Plan.pp p
    | Error msg -> "error: " ^ msg
  in
  (count, plan)

let test_pinned_search_output () =
  let line name (n, plan) =
    Printf.sprintf "%s %d %s" name n (plan_digest plan)
  in
  let bench name =
    let x =
      List.find
        (fun (x : Gencorpus.instance) -> String.equal x.Gencorpus.name name)
        (Gencorpus.bench_corpus ())
    in
    line name (count_and_plan 16 x.Gencorpus.ext x.Gencorpus.tree)
  in
  let ccsd procs =
    let problem, _, tree = ccsd ~scale:`Paper in
    line
      (Printf.sprintf "ccsd-paper-p%d" procs)
      (count_and_plan procs problem.Problem.extents tree)
  in
  let cse =
    let problem = get_ok ~ctx:"parse" (Parser.parse cse_text) in
    let seq = get_ok ~ctx:"seq" (Problem.to_sequence problem) in
    let tree = get_ok ~ctx:"tree" (Tree.of_sequence seq) in
    line "cse" (count_and_plan 16 problem.Problem.extents tree)
  in
  let fuzz seed =
    let buf = Buffer.create 4096 in
    let total =
      List.fold_left
        (fun acc { Gencorpus.name; ext; tree } ->
          let n, plan = count_and_plan 16 ext tree in
          Printf.bprintf buf "%s %d\n%s\n" name n plan;
          acc + n)
        0
        (Gencorpus.fuzz ~seed ~count:24)
    in
    line (Printf.sprintf "fuzz-seed-%d" seed) (total, Buffer.contents buf)
  in
  let sum =
    let sext, sum = Gencorpus.random_sum ~seed:1 ~terms:3 ~lo:24 ~hi:48 () in
    let _, cfg = search_config 16 in
    let sp = get_ok ~ctx:"optimize_sum" (Search.optimize_sum cfg sext sum) in
    "sum-3t-seed-1 " ^ plan_digest (Format.asprintf "%a" (Plan.pp_sum sext) sp)
  in
  let actual =
    [
      ccsd 16;
      ccsd 64;
      cse;
      bench "chain-16";
      bench "einsum-7t-r7";
      fuzz 1;
      fuzz 2;
      fuzz 3;
      sum;
    ]
  in
  Alcotest.(check (list string)) "name, solution count, plan digest" pinned
    actual

(* Pinned plans of the runs whose result reads the order of a node's
   surviving solutions, not only the optimum: the beam and greedy cuts,
   the anytime ladder, the memory-first objective and the fusion-free
   space, each on the paper's CCSD at 16 and 64 processors and on a
   seeded fuzz batch; distributed fusion under a 20 kB limit at P = 4 on
   the same batch; and one node-aware shape search. A line digests the
   rendered plan (or the error) with its exact ([%h]) communication cost
   and memory per node. *)
let ordered_pinned =
  [
    "ccsd-paper-p16 beam4 0cab592bef0ac6cd394ee3fdac3992c7";
    "ccsd-paper-p64 beam4 8bb7fc37acfa3968c7339d0f71d2ea4a";
    "fuzz-seed-1 beam4 08d25b7fc20d4264414a5125ce3810dc";
    "ccsd-paper-p16 greedy 6130bd9a23f6491f1b737b3b780996ea";
    "ccsd-paper-p64 greedy a38adedca72b47c88355bc28a0c522e6";
    "fuzz-seed-1 greedy 88527089407c8d6c7745c9bb282936c3";
    "ccsd-paper-p16 anytime 0cab592bef0ac6cd394ee3fdac3992c7";
    "ccsd-paper-p64 anytime 8bb7fc37acfa3968c7339d0f71d2ea4a";
    "fuzz-seed-1 anytime 8df7ffb646b7f3a4575ad164e10a1df5";
    "ccsd-paper-p16 memfirst d92099a47a567b1fadece2be1650a177";
    "ccsd-paper-p64 memfirst e4faa83575f39d11489c10760cfd7ebc";
    "fuzz-seed-1 memfirst 9c521603de534b82ab7b83b05c938246";
    "ccsd-paper-p16 nofusion a8c7284657185a3cd1f5328534609054";
    "ccsd-paper-p64 nofusion 8bb7fc37acfa3968c7339d0f71d2ea4a";
    "fuzz-seed-1 nofusion e0cf34fdb69931b8dd7c22ce5fb0fca7";
    "fuzz-seed-1 distributed-20kB-p4 b7b493824555d7d92f671a60b248f79b";
    "ccsd-paper node-p8-n4 553ecec699910098656f92ec81aed6fd";
  ]

let test_pinned_ordered_output () =
  let render = function
    | Ok (Search.Tree_plan p) ->
      Format.asprintf "%a@.%h %h" Plan.pp p (Plan.comm_cost p)
        (Plan.mem_per_node_bytes p)
    | Ok (Search.Sum_plan _) -> Alcotest.fail "a tree request planned a sum"
    | Error msg -> "error: " ^ msg
  in
  let run ?(strategy = Search.Exact) ?(objective = Search.Comm) shape ext tree
      =
    render
      (Search.plan ext
         (Search.request ~strategy ~objective shape (Search.Tree tree)))
  in
  let runs =
    [
      ("beam4", fun cfg -> run ~strategy:(Search.Beam 4) (Search.Grid cfg));
      ("greedy", fun cfg -> run ~strategy:Search.Greedy (Search.Grid cfg));
      ("anytime", fun cfg -> run ~strategy:Search.Anytime (Search.Grid cfg));
      ("memfirst", fun cfg -> run ~objective:Search.Mem_first (Search.Grid cfg));
      ( "nofusion",
        fun cfg ->
          run (Search.Grid { cfg with Search.fusion_mode = Search.No_fusion })
      );
    ]
  in
  let problem, _, ccsd_tree = ccsd ~scale:`Paper in
  let ccsd_ext = problem.Problem.extents in
  let fuzz = Gencorpus.fuzz ~seed:1 ~count:24 in
  let batch f =
    plan_digest
      (String.concat "\n"
         (List.map
            (fun { Gencorpus.name; ext; tree } -> name ^ "\n" ^ f ext tree)
            fuzz))
  in
  let line input run digest = Printf.sprintf "%s %s %s" input run digest in
  let grid_runs =
    List.concat_map
      (fun (run_name, go) ->
        let on procs = go (snd (search_config procs)) in
        [
          line "ccsd-paper-p16" run_name
            (plan_digest (on 16 ccsd_ext ccsd_tree));
          line "ccsd-paper-p64" run_name
            (plan_digest (on 64 ccsd_ext ccsd_tree));
          line "fuzz-seed-1" run_name (batch (on 16));
        ])
      runs
  in
  let distributed =
    let _, cfg = search_config ~mem_limit_bytes:20e3 4 in
    line "fuzz-seed-1" "distributed-20kB-p4"
      (batch
         (run (Search.Grid { cfg with Search.allow_distributed_fusion = true })))
  in
  let node =
    let shape =
      get_ok ~ctx:"machine"
        (Search.machine ~nodes:4 ~topology:`Node ~procs:8 ())
    in
    line "ccsd-paper" "node-p8-n4"
      (plan_digest (run shape ccsd_ext ccsd_tree))
  in
  Alcotest.(check (list string)) "input, run, plan digest" ordered_pinned
    (grid_runs @ [ distributed; node ])

(* Exact ties across pruning groups: in S[x,y,z] = sum[k] X[x,y,k] *
   Y[k,z] with equal extents, producing S as <x,z> or as <y,z> costs the
   same, so the root takes whichever group its solution list puts first.
   For these index names the two groups' keys share a hash bucket, where
   that order is the order in which the groups were first met. *)
let test_tied_groups_keep_order () =
  let chosen (x, y, z) =
    let problem =
      get_ok ~ctx:"parse"
        (Parser.parse
           (Printf.sprintf
              "extents %s=8, %s=8, %s=8, k=8\n\
               S[%s,%s,%s] = sum[k] X[%s,%s,k] * Y[k,%s]\n"
              x y z x y z x y z))
    in
    let seq = get_ok ~ctx:"seq" (Problem.to_sequence problem) in
    let tree = get_ok ~ctx:"tree" (Tree.of_sequence seq) in
    let _, cfg = search_config 4 in
    let plan =
      get_ok ~ctx:"optimize" (Search.optimize cfg problem.Problem.extents tree)
    in
    match plan.Plan.steps with
    | [ (s : Plan.step) ] ->
      Format.asprintf "%s%s%s %a" x y z Dist.pp
        (Variant.dist_of s.variant Variant.Out)
    | _ -> Alcotest.fail "expected one contraction"
  in
  Alcotest.(check (list string)) "names, output distribution"
    [ "afm <f,m>"; "agr <g,r>"; "ahc <h,c>"; "ahu <h,u>" ]
    (List.map chosen
       [ ("a", "f", "m"); ("a", "g", "r"); ("a", "h", "c"); ("a", "h", "u") ])

(* The candidate store is held per domain. einsum-7t-r7 grows it, then
   a fuzz batch and CCSD price in turn into the columns the solve before
   left, stale rows included: every plan equals the same solve on a
   freshly spawned domain, whose store is fresh. A second einsum-7t-r7
   solve keeps the store it found, and a smaller solve after it drops
   it. A solve nested in another's cancel token, halfway through its
   polls (inside a node's pricing or pruning), finds its domain's store
   busy and takes a fresh one: both plans equal fresh solves too. *)
let test_store_reused_across_solves () =
  let _, cfg = search_config 16 in
  let render ?cancel ext tree =
    Format.asprintf "%a" Plan.pp
      (get_ok ~ctx:"optimize" (Search.optimize ?cancel cfg ext tree))
  in
  let problem, _, ccsd_tree = ccsd ~scale:`Paper in
  let ccsd () = render problem.Problem.extents ccsd_tree in
  let e7 =
    List.find
      (fun (x : Gencorpus.instance) -> String.equal x.name "einsum-7t-r7")
      (Gencorpus.bench_corpus ())
  in
  let solves =
    ((fun () -> render e7.ext e7.tree)
    :: List.map
         (fun { Gencorpus.ext; tree; _ } () -> render ext tree)
         (Gencorpus.fuzz ~seed:4 ~count:24))
    @ [ ccsd ]
  in
  let on_fresh_domain f = Domain.join (Domain.spawn f) in
  let before, in_turn, after =
    on_fresh_domain (fun () ->
        let before = Search.store_bytes () in
        let plans = List.map (fun solve -> solve ()) solves in
        (before, plans, Search.store_bytes ()))
  in
  Alcotest.(check int) "a fresh domain holds no store" 0 before;
  Alcotest.(check bool) "the store is kept" true (after > 0);
  Alcotest.(check (list string)) "plans on one domain equal fresh ones"
    (List.map on_fresh_domain solves)
    in_turn;
  let grown, again, smaller =
    on_fresh_domain (fun () ->
        let bytes_after solve =
          ignore (solve () : string);
          Search.store_bytes ()
        in
        let grown = bytes_after (List.hd solves) in
        let again = bytes_after (List.hd solves) in
        (grown, again, bytes_after (List.nth solves 1)))
  in
  Alcotest.(check int) "an as large solve keeps the store" grown again;
  Alcotest.(check bool) "a smaller solve drops it" true (smaller < grown);
  let polls = ref 0 in
  ignore
    (render
       ~cancel:(fun () ->
         incr polls;
         false)
       e7.ext e7.tree
      : string);
  let halfway = !polls / 2 and nested = ref None in
  let outer =
    on_fresh_domain (fun () ->
        let polled = ref 0 in
        render
          ~cancel:(fun () ->
            incr polled;
            if !polled = halfway then nested := Some (ccsd ());
            false)
          e7.ext e7.tree)
  in
  Alcotest.(check string) "nested solve equals a fresh one"
    (on_fresh_domain ccsd) (Option.get !nested);
  Alcotest.(check string) "its host solve equals a fresh one"
    (List.hd in_turn) outer

(* The store outlives a cancelled request, so a cancel at any poll,
   while a column grows or a group sorts, must leave it usable: on a
   fresh domain, a solve cancelled at its [k]-th poll raises typed, and
   the domain's next solve equals a fresh one, for every poll [k] of the
   solve (small CCSD polls 206 times and grows the store six times). *)
let test_cancel_at_any_poll_keeps_store () =
  let problem, _, tree = ccsd ~scale:`Small in
  let _, cfg = search_config 16 in
  let solve ?cancel () =
    Format.asprintf "%a" Plan.pp
      (get_ok ~ctx:"optimize"
         (Search.optimize ?cancel cfg problem.Problem.extents tree))
  in
  let polls = ref 0 in
  let fresh =
    Domain.join
      (Domain.spawn
         (solve
            ~cancel:(fun () ->
              incr polls;
              false)))
  in
  for k = 1 to !polls do
    let outcome, next =
      Domain.join
        (Domain.spawn (fun () ->
             let polled = ref 0 in
             let outcome =
               match
                 solve
                   ~cancel:(fun () ->
                     incr polled;
                     !polled >= k)
                   ()
               with
               | exception Tce_error.Error (Tce_error.Deadline_exceeded _) ->
                 "deadline exceeded"
               | exception e -> Printexc.to_string e
               | _ -> "returned a plan"
             in
             (outcome, solve ())))
    in
    Alcotest.(check string)
      (Printf.sprintf "cancel at poll %d raises typed" k)
      "deadline exceeded" outcome;
    Alcotest.(check string)
      (Printf.sprintf "next solve after a cancel at poll %d" k)
      fresh next
  done

let presum_suite =
  [
    case "pre-summed inputs plan and execute" test_presummed_inputs;
    case "random instances match brute force"
      test_random_instances_match_brute_force;
  ]

let suite =
  [
    ( "search.paper",
      [
        case "Table 1 shape (64 procs)" test_table1_shape;
        case "Table 2 shape (16 procs)" test_table2_shape;
        case "Table 2 memory rows" test_table2_memory_rows;
      ] );
    ( "search.behaviour",
      [
        case "communication monotone in memory pressure" test_memory_monotone;
        case "infeasible memory reported" test_infeasible_reports_error;
        case "fusion-free baseline infeasible at 16 procs"
          test_fusion_free_infeasible_at_16;
        case "memmin-fusion baseline is worse" test_memmin_baseline_worse;
        case "optimal against brute force" test_optimize_equals_brute_force;
        case "grid/characterization mismatch" test_grid_mismatch_error;
        case "Hadamard trees rejected" test_rejects_hadamard_tree;
        case "solution-set pruning effective" test_solution_count_small;
        case "redistribution costing sane" test_redistribution_used;
        case "fixed fusion mode" test_fixed_fusion_mode;
        case "pinned solution counts and plan digests"
          test_pinned_search_output;
        case "pinned plans of order-reading runs" test_pinned_ordered_output;
        case "tied root groups keep their order" test_tied_groups_keep_order;
        case "a domain's kept store plans as a fresh one"
          test_store_reused_across_solves;
        case "a cancel at any poll leaves the store usable"
          test_cancel_at_any_poll_keeps_store;
      ]
      @ presum_suite );
  ]
