(* Benchmark and reproduction harness.

   With no arguments, regenerates every table and figure of the paper's
   evaluation plus the sweeps implied by its narrative, and validates the
   plans numerically; individual sections can be selected:

     dune exec bench/main.exe                      # the paper sections
     dune exec bench/main.exe -- table1 table2
     dune exec bench/main.exe -- fig1 fig2 sweep-procs sweep-memory
     dune exec bench/main.exe -- validate ablation

   See DESIGN.md section 3 for the experiment index and EXPERIMENTS.md for
   the recorded paper-vs-model numbers. *)

open Tce

let ccsd_text =
  {|
extents a=480, b=480, c=480, d=480, e=64, f=64, i=32, j=32, k=32, l=32
T1[b,c,d,f] = sum[e,l] B[b,e,f,l] * D[c,d,e,l]
T2[b,c,j,k] = sum[d,f] T1[b,c,d,f] * C[d,f,j,k]
S[a,b,i,j]  = sum[c,k] T2[b,c,j,k] * A[a,c,i,k]
|}

let ccsd_small_text =
  {|
extents a=12, b=12, c=12, d=12, e=8, f=8, i=6, j=6, k=6, l=6
T1[b,c,d,f] = sum[e,l] B[b,e,f,l] * D[c,d,e,l]
T2[b,c,j,k] = sum[d,f] T1[b,c,d,f] * C[d,f,j,k]
S[a,b,i,j]  = sum[c,k] T2[b,c,j,k] * A[a,c,i,k]
|}

let load text =
  let problem = Result.get_ok (Parser.parse text) in
  let seq = Result.get_ok (Problem.to_sequence problem) in
  let tree = Tree.fuse_mult_sum (Result.get_ok (Tree.of_sequence seq)) in
  (problem, seq, tree)

let params = Params.itanium_2003

(* Full methodology fidelity: measure the (simulated) machine, write the
   characterization file, reload it, and hand the optimizer only the loaded
   characterization — the paper's exact pipeline. *)
let measured_rcost grid =
  let rcost =
    Rcost.characterize ~side:(Grid.side grid) ~samples:Rcost.default_samples
      ~measure:(fun ~axis ~words ->
        Simulate.measure_rotation params grid ~axis ~words)
  in
  let path = Filename.temp_file "tce_bench_rcost" ".txt" in
  Result.get_ok (Rcost.save rcost ~path);
  let loaded = Result.get_ok (Rcost.load ~path) in
  Sys.remove path;
  loaded

let config procs =
  let grid = Grid.create_exn ~procs in
  let rcost = measured_rcost grid in
  (grid, Search.default_config ~grid ~params ~rcost ())

let section title = Format.printf "@.===== %s =====@.@." title

let json_int k = Json.Num (float_of_int k)

(* Writes BENCH_<name>.json: "benchmark", the host's "host_cores" and
   the GEMM tile width the kernel ran at, "gemm_lanes", then [fields],
   one per line, then [cases] (when given) one per line. *)
let write_artifact name ?cases fields =
  let path = "BENCH_" ^ name ^ ".json" in
  let member key text = "  " ^ Json.to_string (Json.Str key) ^ ": " ^ text in
  let fields =
    ("benchmark", Json.Str name)
    :: ("host_cores", json_int (Domain.recommended_domain_count ()))
    :: ("gemm_lanes", json_int (Kernel.tile_lanes ()))
    :: fields
  in
  let cases =
    match cases with
    | None -> []
    | Some [] -> [ member "cases" "[]" ]
    | Some cases ->
      [
        member "cases"
          ("[\n    "
          ^ String.concat ",\n    "
              (List.map (fun c -> Json.to_string (Json.Obj c)) cases)
          ^ "\n  ]");
      ]
  in
  let lines = List.map (fun (k, v) -> member k (Json.to_string v)) fields in
  Out_channel.with_open_text path (fun oc ->
      output_string oc ("{\n" ^ String.concat ",\n" (lines @ cases) ^ "\n}\n"));
  Format.printf "@.wrote %s@." path

(* ------------------------------------------------------------------ *)
(* Tables 1 and 2                                                      *)
(* ------------------------------------------------------------------ *)

let run_table procs paper_rows paper_totals label =
  section label;
  let problem, _, tree = load ccsd_text in
  let ext = problem.Problem.extents in
  let _, cfg = config procs in
  match Search.optimize cfg ext tree with
  | Error msg -> Format.printf "optimization failed: %s@." msg
  | Ok plan ->
    Format.printf "%a@.%s@.@." Table.pp (Exptables.plan_table plan)
      (Exptables.totals_line plan);
    Format.printf "paper vs model, per array:@.%a@.@." Table.pp
      (Exptables.comparison_table plan paper_rows);
    Format.printf "paper vs model, totals:@.%a@.@." Table.pp
      (Exptables.totals_comparison plan paper_totals);
    let timing = Simulate.run_plan_exn params ext plan in
    Format.printf
      "discrete-event replay of the plan: %a@.(model predicted %.1f s \
       communication; replay deviation %s)@."
      Simulate.pp_timing timing (Plan.comm_cost plan)
      (Exptables.pct_dev ~ours:timing.Simulate.comm_seconds
         ~paper:(Plan.comm_cost plan))

let table1 () =
  run_table 64 Paperref.table1 Paperref.totals1
    "Table 1: 64 processors (32 nodes), 4 GB/node"

let table2 () =
  run_table 16 Paperref.table2 Paperref.totals2
    "Table 2: 16 processors (8 nodes), 4 GB/node"

(* ------------------------------------------------------------------ *)
(* Figure 1                                                            *)
(* ------------------------------------------------------------------ *)

let fig1 () =
  section "Figure 1: formula sequence and binary tree for S(t)";
  let text =
    {|
extents i=100, j=100, k=100, t=100
S[t] = sum[i,j,k] A[i,j,t] * B[j,k,t]
|}
  in
  let problem = Result.get_ok (Parser.parse text) in
  let ext = problem.Problem.extents in
  let d = List.hd problem.Problem.defs in
  Format.printf "direct evaluation: %d flops (~2 N_i N_j N_k N_t)@.@."
    (Opmin.naive_flops ext d);
  let optimized = Result.get_ok (Opmin.optimize problem) in
  Format.printf "after operation minimization:@.%a@.@." Problem.pp optimized;
  let seq = Result.get_ok (Problem.to_sequence optimized) in
  let tree = Result.get_ok (Tree.of_sequence seq) in
  Format.printf "binary tree:@.%a@.@." Tree.pp tree;
  Format.printf
    "optimized flops: %d (paper: N_i N_j N_t + N_j N_k N_t + 2 N_j N_t)@."
    (Tree.flops ext tree);
  let small =
    Result.get_ok
      (Parser.parse
         {|
extents i=7, j=6, k=5, t=4
S[t] = sum[i,j,k] A[i,j,t] * B[j,k,t]
|})
  in
  let small_opt = Result.get_ok (Opmin.optimize small) in
  let sseq = Result.get_ok (Problem.to_sequence small_opt) in
  let inputs = Sequence.random_inputs small.Problem.extents ~seed:11 sseq in
  let via_tree = Sequence.eval small.Problem.extents ~inputs sseq in
  let direct =
    Einsum.contract2
      ~out:[ Index.v "t" ]
      (List.assoc "A" inputs) (List.assoc "B" inputs)
  in
  Format.printf "factored result matches direct contraction: %b@."
    (Dense.equal_approx ~tol:1e-9 via_tree direct)

(* ------------------------------------------------------------------ *)
(* Figure 2                                                            *)
(* ------------------------------------------------------------------ *)

let fig2 () =
  section "Figure 2: loop fusion for memory reduction";
  let problem, _, tree = load ccsd_text in
  let ext = problem.Problem.extents in
  let unfused = Result.get_ok (Loopnest.generate_unfused tree) in
  Format.printf "(b) direct implementation (unfused):@.%a@." Loopnest.pp
    unfused;
  Format.printf "@.unfused temporaries: %.2f GWords (T1 dominates)@.@."
    (float_of_int (Loopnest.temporary_words ext unfused) /. 1e9);
  let mm = Memmin.minimize ext tree in
  let fusions name =
    Index.set_of_list
      (Option.value ~default:[] (List.assoc_opt name mm.Memmin.edge_fusions))
  in
  let fused = Result.get_ok (Loopnest.generate tree ~fusions) in
  Format.printf "(c) memory-reduced implementation (fused):@.%a@." Loopnest.pp
    fused;
  Format.printf
    "@.fused temporaries: %d words -- T1 is a scalar and T2 is 2-D, as in \
     the paper@."
    (Loopnest.temporary_words ext fused);
  let sproblem, sseq, stree = load ccsd_small_text in
  let sext = sproblem.Problem.extents in
  let smm = Memmin.minimize sext stree in
  let sfusions name =
    Index.set_of_list
      (Option.value ~default:[] (List.assoc_opt name smm.Memmin.edge_fusions))
  in
  let sprog = Result.get_ok (Loopnest.generate stree ~fusions:sfusions) in
  let inputs = Sequence.random_inputs sext ~seed:5 sseq in
  let reference = Sequence.eval sext ~inputs sseq in
  let got = Interp.run_exn sext sprog ~inputs in
  Format.printf "fused program output matches reference: %b@."
    (Dense.equal_approx ~tol:1e-9 reference got)

(* ------------------------------------------------------------------ *)
(* Sweeps                                                              *)
(* ------------------------------------------------------------------ *)

(* Plan [tree] on [cfg] with a fusion mode and objective — a baseline
   setting of the one search — under the given strategy. *)
let plan_tree ?(strategy = Search.Exact) ?on_round ?(mode = `All) cfg ext tree =
  let fusion_mode, objective = Baselines.of_mode mode in
  Result.map Search.tree_plan
    (Search.plan ?on_round ext
       (Search.request ~strategy ~objective
          (Search.Grid { cfg with Search.fusion_mode })
          (Search.Tree tree)))

let describe_result = function
  | Error _ -> ("infeasible", "-", "-")
  | Ok plan ->
    ( Format.asprintf "%.1f" (Plan.comm_cost plan),
      Format.asprintf "%.1f%%" (100.0 *. Plan.comm_fraction plan),
      Format.asprintf "%.2f" (Plan.mem_per_node_bytes plan /. 1e9) )

let sweep_procs () =
  section
    "Sweep A: processor count at fixed 4 GB/node (narrative of section 4)";
  let problem, _, tree = load ccsd_text in
  let ext = problem.Problem.extents in
  let t =
    Table.create
      ~headers:
        [
          "procs"; "integrated comm"; "comm %"; "GB/node";
          "fusion-free comm"; "memmin-fusion comm";
        ]
  in
  let t =
    List.fold_left
      (fun t procs ->
        let _, cfg = config procs in
        let c1, f1, m1 = describe_result (plan_tree cfg ext tree) in
        let c2, _, _ = describe_result (plan_tree ~mode:`None cfg ext tree) in
        let c3, _, _ = describe_result (plan_tree ~mode:`Memmin cfg ext tree) in
        Table.add_row t [ string_of_int procs; c1; f1; m1; c2; c3 ])
      t
      [ 16; 36; 64; 100; 144; 256 ]
  in
  Format.printf "%a@." Table.pp t;
  Format.printf
    "@.The counter-intuitive trend: shrinking the machine below the memory \
     cliff (16 procs) forces fusion and the communication share jumps; the \
     fusion-free prior work is infeasible there.@."

let sweep_memory () =
  section "Sweep B: per-node memory limit at 16 processors";
  let problem, _, tree = load ccsd_text in
  let ext = problem.Problem.extents in
  let grid = Grid.create_exn ~procs:16 in
  let rcost = Rcost.of_params params ~side:(Grid.side grid) in
  let t =
    Table.create
      ~headers:
        [ "limit (GB)"; "T1 reduced to"; "comm (s)"; "comm %"; "GB/node" ]
  in
  let t =
    List.fold_left
      (fun t gb ->
        let cfg =
          Search.default_config ~mem_limit_bytes:(gb *. 1e9) ~grid ~params
            ~rcost ()
        in
        match Search.optimize cfg ext tree with
        | Error _ ->
          Table.add_row t [ Format.asprintf "%.2f" gb; "infeasible" ]
        | Ok plan ->
          let t1 =
            match Plan.find_row plan "T1" with
            | Some row ->
              Format.asprintf "T1[%a]" Index.pp_list row.Plan.reduced_dims
            | None -> "?"
          in
          let c, f, m = describe_result (Ok plan) in
          Table.add_row t [ Format.asprintf "%.2f" gb; t1; c; f; m ])
      t
      [ 0.5; 0.75; 1.0; 1.25; 1.5; 2.0; 3.0; 4.0; 8.0; 16.0; 32.0 ]
  in
  Format.printf "%a@." Table.pp t

(* ------------------------------------------------------------------ *)
(* Ablation                                                            *)
(* ------------------------------------------------------------------ *)

let ablation () =
  section "Ablation: search restrictions (16 processors, 4 GB/node)";
  let problem, _, tree = load ccsd_text in
  let ext = problem.Problem.extents in
  let grid = Grid.create_exn ~procs:16 in
  let rcost = Rcost.of_params params ~side:(Grid.side grid) in
  let base = Search.default_config ~grid ~params ~rcost () in
  let t = Table.create ~headers:[ "configuration"; "comm (s)"; "GB/node" ] in
  let row t name cfg =
    match Search.optimize cfg ext tree with
    | Error msg -> Table.add_row t [ name; "infeasible: " ^ msg ]
    | Ok plan ->
      Table.add_row t
        [
          name;
          Format.asprintf "%.1f" (Plan.comm_cost plan);
          Format.asprintf "%.2f" (Plan.mem_per_node_bytes plan /. 1e9);
        ]
  in
  let t = row t "integrated search (the paper)" base in
  let t =
    row t "redistribution forbidden"
      { base with Search.redist_factor = 1e12 }
  in
  let t =
    row t "redistribution at half cost"
      { base with Search.redist_factor = 0.5 }
  in
  let t =
    row t "fusion disabled (prior work [16])"
      { base with Search.fusion_mode = Search.No_fusion }
  in
  let t =
    row t "sequential memmin fusion, verbatim (not Cannon-executable)"
      {
        base with
        Search.fusion_mode =
          (let mm = Memmin.minimize ext tree in
           Search.Fixed
             (List.map
                (fun (n, idxs) -> (n, Index.set_of_list idxs))
                mm.Memmin.edge_fusions));
      }
  in
  let t =
    match plan_tree ~mode:`Memmin base ext tree with
    | Error msg ->
      Table.add_row t [ "memory-first objective [14,15]"; "infeasible: " ^ msg ]
    | Ok plan ->
      Table.add_row t
        [
          "memory-first objective [14,15]";
          Format.asprintf "%.1f" (Plan.comm_cost plan);
          Format.asprintf "%.2f" (Plan.mem_per_node_bytes plan /. 1e9);
        ]
  in
  let t =
    row t "distributed fused loops allowed"
      { base with Search.allow_distributed_fusion = true }
  in
  Format.printf "%a@." Table.pp t;
  (match Search.solution_count base ext tree with
  | Ok n -> Format.printf "@.undominated solutions at the root: %d@." n
  | Error msg -> Format.printf "@.solution count failed: %s@." msg);
  let c = Result.get_ok (Contraction.of_formula
    (Result.get_ok (Formula.contract
      (Aref.v "T1" (List.map Index.v ["b";"c";"d";"f"]))
      (List.map Index.v ["e";"l"])
      (Aref.v "B" (List.map Index.v ["b";"e";"f";"l"]))
      (Aref.v "D" (List.map Index.v ["c";"d";"e";"l"]))))) in
  Format.printf
    "communication patterns per contraction (3*NI*NJ*NK), first step: %d@."
    (Contraction.pattern_count c)

(* ------------------------------------------------------------------ *)
(* Cross-machine study                                                 *)
(* ------------------------------------------------------------------ *)

(* The optimizer consumes nothing but the characterization, so pointing it
   at different machines shows how the fusion/distribution choice adapts:
   latency-dominated networks punish the many small messages fusion
   creates, bandwidth-dominated ones barely notice. *)
let machines () =
  section "Cross-machine study: the same problem on three clusters (16 procs)";
  let problem, _, tree = load ccsd_text in
  let ext = problem.Problem.extents in
  let grid = Grid.create_exn ~procs:16 in
  let side = Grid.side grid in
  let machines =
    [
      ("itanium-2003 (paper)", params);
      ( "fast-network",
        Params.uniform ~name:"fast-network" ~latency:5e-6 ~bandwidth:1e9
          ~flop_rate:2e9 ~procs_per_node:2 ~mem_per_node_bytes:4e9 );
      ( "latency-bound",
        Params.uniform ~name:"latency-bound" ~latency:5e-3 ~bandwidth:2e8
          ~flop_rate:2e9 ~procs_per_node:2 ~mem_per_node_bytes:4e9 );
    ]
  in
  let t =
    Table.create
      ~headers:
        [
          "machine"; "comm (s)"; "comm %"; "messages (MsgFactor sum)";
          "T1 reduced to";
        ]
  in
  let t =
    List.fold_left
      (fun t (name, m) ->
        let rcost = Rcost.of_params m ~side in
        let cfg = Search.default_config ~grid ~params:m ~rcost () in
        match Search.optimize cfg ext tree with
        | Error msg -> Table.add_row t [ name; "infeasible: " ^ msg ]
        | Ok plan ->
          let messages =
            List.fold_left
              (fun acc (s : Plan.step) ->
                List.fold_left
                  (fun acc (role, _) ->
                    let fused =
                      match role with
                      | Variant.Out -> s.fusion_out
                      | Variant.Left -> s.fusion_left
                      | Variant.Right -> s.fusion_right
                    in
                    acc
                    + Eqs.msg_factor_rect ext ~rows:side ~cols:side
                        ~alpha:(Variant.dist_of s.variant role)
                        ~fused
                        ~dims:(Aref.indices (Variant.aref_of s.variant role)))
                  acc s.rotations)
              0 plan.Plan.steps
          in
          let t1 =
            match Plan.find_row plan "T1" with
            | Some row ->
              Format.asprintf "T1[%a]" Index.pp_list row.Plan.reduced_dims
            | None -> "?"
          in
          Table.add_row t
            [
              name;
              Format.asprintf "%.1f" (Plan.comm_cost plan);
              Format.asprintf "%.1f%%" (100.0 *. Plan.comm_fraction plan);
              string_of_int messages;
              t1;
            ])
      t machines
  in
  Format.printf "%a@." Table.pp t

(* ------------------------------------------------------------------ *)
(* Validation                                                          *)
(* ------------------------------------------------------------------ *)

let validate () =
  section "Validation: optimized plans against the naive reference";
  let problem, seq, tree = load ccsd_small_text in
  let ext = problem.Problem.extents in
  let inputs = Sequence.random_inputs ext ~seed:20260705 seq in
  let reference = Sequence.eval ext ~inputs seq in
  List.iter
    (fun procs ->
      let grid, cfg = config procs in
      match Search.optimize cfg ext tree with
      | Error msg -> Format.printf "P=%d: optimization failed: %s@." procs msg
      | Ok plan ->
        let parallel = Multicore.run_plan grid ext plan ~inputs in
        let ok = Dense.equal_approx ~tol:1e-9 reference parallel in
        let timing = Simulate.run_plan_exn params ext plan in
        Format.printf
          "P=%3d: %d-domain execution matches reference: %b; replayed comm \
           %.4f s vs model %.4f s@."
          procs procs ok timing.Simulate.comm_seconds (Plan.comm_cost plan))
    [ 1; 4; 16 ];
  let mm = Memmin.minimize ext tree in
  let fusions name =
    Index.set_of_list
      (Option.value ~default:[] (List.assoc_opt name mm.Memmin.edge_fusions))
  in
  let prog = Result.get_ok (Loopnest.generate tree ~fusions) in
  Format.printf "fused sequential program matches reference: %b@."
    (Dense.equal_approx ~tol:1e-9 reference (Interp.run_exn ext prog ~inputs));
  (* Execution with the plan's fusion (sliced rotations, fusion-reduced
     intermediates) under a memory staircase, on four domains. *)
  let grid4, _ = config 4 in
  List.iter
    (fun limit ->
      let grid = grid4 in
      let rcost = Rcost.of_params params ~side:(Grid.side grid) in
      let cfg =
        Search.default_config ?mem_limit_bytes:limit ~grid ~params ~rcost ()
      in
      match Search.optimize cfg ext tree with
      | Error msg ->
        Format.printf "fused-exec (limit %s): infeasible (%s)@."
          (match limit with None -> "none" | Some b -> Format.asprintf "%.0f B" b)
          msg
      | Ok plan ->
        let st = Multicore.run_plan_stats grid ext plan ~inputs in
        Format.printf
          "fused-exec (limit %s): matches=%b, sliced rotations=%d, per-rank \
           peak=%d words@."
          (match limit with None -> "none" | Some b -> Format.asprintf "%.0f B" b)
          (Dense.equal_approx ~tol:1e-9 reference st.Multicore.result)
          st.Multicore.sliced_rotations st.Multicore.peak_words_per_proc)
    [ None; Some 150_000.0; Some 120_000.0 ]

(* ------------------------------------------------------------------ *)
(* CSV export                                                          *)
(* ------------------------------------------------------------------ *)

(* Machine-readable versions of the main results, for plotting. *)
let csv () =
  section "CSV export (results/)";
  ignore (Sys.command "mkdir -p results");
  let write name table =
    let path = Filename.concat "results" name in
    Out_channel.with_open_text path (fun oc ->
        output_string oc (Table.csv table);
        output_char oc '\n');
    Format.printf "wrote %s@." path
  in
  let problem, _, tree = load ccsd_text in
  let ext = problem.Problem.extents in
  List.iter
    (fun (procs, fname) ->
      let _, cfg = config procs in
      match Search.optimize cfg ext tree with
      | Error _ -> ()
      | Ok plan -> write fname (Exptables.plan_table plan))
    [ (64, "table1.csv"); (16, "table2.csv") ];
  let sweep =
    Table.create ~headers:[ "procs"; "comm_s"; "comm_frac"; "gb_per_node" ]
  in
  let sweep =
    List.fold_left
      (fun t procs ->
        let _, cfg = config procs in
        match Search.optimize cfg ext tree with
        | Error _ -> Table.add_row t [ string_of_int procs ]
        | Ok plan ->
          Table.add_row t
            [
              string_of_int procs;
              Format.asprintf "%.2f" (Plan.comm_cost plan);
              Format.asprintf "%.4f" (Plan.comm_fraction plan);
              Format.asprintf "%.3f" (Plan.mem_per_node_bytes plan /. 1e9);
            ])
      sweep
      [ 16; 36; 64; 100; 144; 256 ]
  in
  write "sweep_procs.csv" sweep;
  let memsweep =
    Table.create ~headers:[ "limit_gb"; "comm_s"; "comm_frac" ]
  in
  let grid = Grid.create_exn ~procs:16 in
  let rcost = measured_rcost grid in
  let memsweep =
    List.fold_left
      (fun t gb ->
        let cfg =
          Search.default_config ~mem_limit_bytes:(gb *. 1e9) ~grid ~params
            ~rcost ()
        in
        match Search.optimize cfg ext tree with
        | Error _ -> Table.add_row t [ Format.asprintf "%.2f" gb ]
        | Ok plan ->
          Table.add_row t
            [
              Format.asprintf "%.2f" gb;
              Format.asprintf "%.2f" (Plan.comm_cost plan);
              Format.asprintf "%.4f" (Plan.comm_fraction plan);
            ])
      memsweep
      [ 0.5; 0.75; 1.0; 1.25; 1.5; 2.0; 3.0; 4.0; 8.0; 16.0; 32.0 ]
  in
  write "sweep_memory.csv" memsweep

(* ------------------------------------------------------------------ *)
(* Kernel benchmarks                                                   *)
(* ------------------------------------------------------------------ *)

(* Times the blocked contraction kernel against the frozen seed engine
   ([Einsum.contract2_ref]) on CCSD-shaped and adversarial layouts, and
   alone on exec-ccsd's per-rank block shapes, at every GEMM tile width
   the host runs (the widest is the headline rate), and writes
   BENCH_kernels.json so future PRs can track the trajectory. Sizes are
   chosen to keep the reference runs near a second in total, so the
   section doubles as a CI smoke job. *)
let kernels () =
  section "Kernel benchmarks: blocked kernel vs frozen seed reference";
  let rng = Prng.create ~seed:20260806 in
  let mk dims =
    let t = Dense.create (List.map (fun (n, e) -> (Index.v n, e)) dims) in
    Dense.fill_random t rng;
    t
  in
  (* Process CPU seconds and wall seconds summed over every timed
     window: their ratio falls below 1 when other programs take this
     run's core, so a loaded host can be told from a slow kernel. *)
  let cpu_s = ref 0. and wall_s = ref 0. in
  let cpu () =
    let t = Unix.times () in
    t.Unix.tms_utime +. t.Unix.tms_stime
  in
  let time_of f =
    (* Adaptive repetition: double the run count until the measurement is
       long enough to trust, then report CPU seconds per run. Best of
       seven such measurements, so the committed artifact (and the CI
       gates on it) sit on the steady-state rate rather than scheduler
       noise. *)
    ignore (f ());
    let rec go n =
      let c0 = cpu () and w0 = Unix.gettimeofday () in
      for _ = 1 to n do
        ignore (f ())
      done;
      let dt = cpu () -. c0 in
      cpu_s := !cpu_s +. dt;
      wall_s := !wall_s +. (Unix.gettimeofday () -. w0);
      if dt >= 0.2 || n >= 4096 then dt /. float_of_int n else go (n * 2)
    in
    List.fold_left Float.min infinity (List.init 7 (fun _ -> go 1))
  in
  (* An M×N×K matmul, C[i,j] = Σ_k A[i,k]·B[k,j]. *)
  let matmul name m n k =
    (name, [ "i"; "j" ], mk [ ("i", m); ("k", k) ], mk [ ("k", k); ("j", n) ])
  in
  let cases =
    [
      (* T1[b,c,d,f] = Σ_{e,l} B[b,e,f,l]·D[c,d,e,l]: the CCSD micro
         case the >=10x acceptance bar is stated over. *)
      ( "ccsd-t1",
        [ "b"; "c"; "d"; "f" ],
        mk [ ("b", 14); ("e", 10); ("f", 10); ("l", 10) ],
        mk [ ("c", 14); ("d", 14); ("e", 10); ("l", 10) ] );
      (* T2[b,c,j,k] = Σ_{d,f} T1[b,c,d,f]·C[d,f,j,k]: coalesces to a
         clean (bc) x (jk) x (df) matmul. *)
      ( "ccsd-t2",
        [ "b"; "c"; "j"; "k" ],
        mk [ ("b", 14); ("c", 14); ("d", 14); ("f", 10) ],
        mk [ ("d", 14); ("f", 10); ("j", 10); ("k", 10) ] );
      (* Same contraction as ccsd-t1 under permuted operand storage:
         coalescing is partially defeated, strides are non-trivial. *)
      ( "ccsd-t1-permuted",
        [ "b"; "c"; "d"; "f" ],
        mk [ ("l", 10); ("b", 14); ("e", 10); ("f", 10) ],
        mk [ ("e", 10); ("c", 14); ("l", 10); ("d", 14) ] );
      (* Innermost output dimension present in both operands: no (M,N,K)
         form exists, so the stride walk runs it. No plan executes this
         shape (the Cannon template rejects it); the case tracks the
         walk's rate and its bits. Extents are chosen L2-resident like
         the CCSD cases: each A element feeds one multiply-add, so a
         DRAM-sized A would measure stream bandwidth, not the kernel. *)
      ( "noncoalescible",
        [ "m"; "x" ],
        mk [ ("m", 32); ("k", 64); ("x", 64) ],
        mk [ ("k", 64); ("x", 64) ] );
    ]
  in
  (* exec-ccsd's per-rank block shapes, which its run time goes to: the
     layer the GEMM's loop order and tiles are measured on. The frozen
     reference runs them at about 0.06 GFLOP/s, over a second per run,
     so they are timed on the kernel alone. *)
  let blocks =
    [
      matmul "block-t1" 512 512 96;
      matmul "block-t2" 1024 72 256;
      matmul "block-s" 192 384 192;
    ]
  in
  let path_name = function Kernel.Gemm -> "gemm" | Kernel.Walk -> "walk" in
  let widest = Kernel.tile_lanes () in
  let rows =
    List.map
      (fun ((name, out_names, a, b), timed_ref) ->
        let out = List.map Index.v out_names in
        let flops = Einsum.flops_contract2 ~out a b in
        let gf s = float_of_int flops /. s /. 1e9 in
        let into = Einsum.contract2 ~out a b in
        (* The bit contract: from the same starting output, the kernel at
           every tile width and the walk oracle agree in every bit. *)
        let walked = Dense.copy into in
        Kernel.set_walk_oracle true;
        Fun.protect
          ~finally:(fun () -> Kernel.set_walk_oracle false)
          (fun () -> Einsum.contract2_acc ~into:walked a b);
        let ladder =
          Fun.protect
            ~finally:(fun () -> Kernel.set_tile_lanes widest)
            (fun () ->
              List.map
                (fun w ->
                  Kernel.set_tile_lanes w;
                  let seconds = time_of (fun () -> Einsum.contract2 ~out a b) in
                  let ran = Dense.copy into in
                  Einsum.contract2_acc ~into:ran a b;
                  (w, seconds, Dense.bits_equal ran walked))
                (Kernel.supported_lanes ()))
        in
        let _, kernel_s, bits_equal_walk =
          List.find (fun (w, _, _) -> w = widest) ladder
        in
        let kpath = Kernel.last_path () in
        (* GC pressure of one kernel run: minor/major words allocated.
           Packing reuses grow-only domain scratch, so after warmup this
           is the output tensor plus bookkeeping only. *)
        let g0 = Gc.quick_stat () in
        ignore (Einsum.contract2 ~out a b);
        let g1 = Gc.quick_stat () in
        let minor_w = g1.Gc.minor_words -. g0.Gc.minor_words
        and major_w = g1.Gc.major_words -. g0.Gc.major_words in
        let ref_s =
          if timed_ref then
            Some (time_of (fun () -> Einsum.contract2_ref ~out a b))
          else None
        in
        (* Allocation of one accumulating Cannon-style step into a
           preallocated output block: must be bookkeeping-sized,
           independent of tensor extents (no per-step delta tensor). *)
        let before = Gc.allocated_bytes () in
        Einsum.contract2_acc ~into a b;
        let acc_alloc = Gc.allocated_bytes () -. before in
        Format.printf "%-18s %8.1f MFLOP  %s kernel %8.5f s (%6.3f GF/s)  \
                       path=%s  acc-alloc %.0f B@."
          name
          (float_of_int flops /. 1e6)
          (match ref_s with
          | Some r ->
            Printf.sprintf "ref %8.4f s (%6.3f GF/s)  speedup %7.1fx " r
              (gf r) (r /. kernel_s)
          | None -> "")
          kernel_s (gf kernel_s) (path_name kpath) acc_alloc;
        List.iter
          (fun (w, seconds, bits) ->
            Format.printf "%-18s %d lanes: %6.3f GF/s, bits equal walk %b@."
              "" w (gf seconds) bits)
          ladder;
        [
          ("name", Json.Str name);
          ("flops", json_int flops);
          ("kernel_seconds", Json.Num kernel_s);
          ("kernel_gflops", Json.Num (gf kernel_s));
        ]
        @ (match ref_s with
          | Some r ->
            [
              ("ref_seconds", Json.Num r);
              ("ref_gflops", Json.Num (gf r));
              ("speedup", Json.Num (r /. kernel_s));
            ]
          | None -> [])
        @ [
          ("path", Json.Str (path_name kpath));
          ("bits_equal_walk", Json.Bool bits_equal_walk);
          ( "lanes",
            Json.Arr
              (List.map
                 (fun (w, seconds, bits) ->
                   Json.Obj
                     [
                       ("lanes", json_int w);
                       ("kernel_gflops", Json.Num (gf seconds));
                       ("bits_equal_walk", Json.Bool bits);
                     ])
                 ladder) );
          ("gc_minor_words", Json.Num minor_w);
          ("gc_major_words", Json.Num major_w);
          ("acc_alloc_bytes", Json.Num acc_alloc);
          ("out_bytes", json_int (8 * Dense.size into));
        ])
      (List.map (fun c -> (c, true)) cases
      @ List.map (fun c -> (c, false)) blocks)
  in
  let cpu_per_wall = !cpu_s /. !wall_s in
  Format.printf "host cpu: %.3f CPU s per wall s while timing@." cpu_per_wall;
  let bkc, bmc, bnc = Kernel.blocking () in
  write_artifact "kernels" ~cases:rows
    [
      ( "blocking",
        Json.Obj
          [ ("kc", json_int bkc); ("mc", json_int bmc); ("nc", json_int bnc) ]
      );
      ("cpu_per_wall", Json.Num cpu_per_wall);
    ]

(* ------------------------------------------------------------------ *)
(* SPMD engine benchmarks                                              *)
(* ------------------------------------------------------------------ *)

(* Times whole-plan execution of the small CCSD plan on real domains,
   on one persistent pool per grid, on 1x2, 2x2 and 3x3 grids; checks
   each output against the sequential reference, records the host's core
   count, flags grids with more ranks than cores as oversubscribed, and
   writes BENCH_spmd.json. *)
let spmd () =
  section "SPMD engine: pooled Cannon on 1x2, 2x2 and 3x3 grids";
  let problem, seq, tree = load ccsd_small_text in
  let ext = problem.Problem.extents in
  let inputs = Sequence.random_inputs ext ~seed:20260806 seq in
  let reference = Sequence.eval ext ~inputs seq in
  let host_cores = Domain.recommended_domain_count () in
  (* Wall clock, not [Sys.time]: domain CPU time sums across cores. *)
  let wall_of ?(reps = 5) f =
    ignore (f ());
    let best = ref infinity in
    for _ = 1 to reps do
      let t0 = Unix.gettimeofday () in
      ignore (f ());
      best := Float.min !best (Unix.gettimeofday () -. t0)
    done;
    !best
  in
  let rows =
    List.map
      (fun (r, c) ->
        let grid = Grid.create_rect_exn ~rows:r ~cols:c in
        let cfg =
          Search.default_config ~grid ~params
            ~rcost:(Rcost.of_topology (Topology.uniform params) grid)
            ()
        in
        let plan = Result.get_ok (Search.optimize cfg ext tree) in
        let procs = Grid.procs grid in
        Spmd.with_pool ~procs (fun pool ->
            let run () = Multicore.run_plan ~pool grid ext plan ~inputs in
            let matches = Dense.equal_approx ~tol:1e-9 reference (run ()) in
            let seconds = wall_of run in
            let over = procs > host_cores in
            Format.printf "%dx%d %9.2f ms/plan  matches reference %b%s@." r c
              (1e3 *. seconds) matches
              (if over then "  (oversubscribed)" else "");
            [
              ("grid", Json.Str (Printf.sprintf "%dx%d" r c));
              ("plan_steps", json_int (List.length plan.Plan.steps));
              ("seconds", Json.Num seconds);
              ("host_cores", json_int host_cores);
              ("oversubscribed", Json.Bool over);
              ("matches_reference", Json.Bool matches);
            ]))
      [ (1, 2); (2, 2); (3, 3) ]
  in
  write_artifact "spmd" ~cases:rows []

(* ------------------------------------------------------------------ *)
(* Tracing overhead and volume                                         *)
(* ------------------------------------------------------------------ *)

(* Measures what the Obs probes cost: whole-plan pooled execution with no
   sink installed (every probe is one atomic load) vs with a sink
   recording, plus the event volume of a traced simulator replay, with
   the host's core count. Writes BENCH_trace.json. *)
let trace () =
  section "Tracing: probe overhead and trace volume";
  let problem, seq, tree = load ccsd_small_text in
  let ext = problem.Problem.extents in
  let inputs = Sequence.random_inputs ext ~seed:20260806 seq in
  let grid, cfg = config 4 in
  let plan = Result.get_ok (Search.optimize cfg ext tree) in
  let wall_of ?(reps = 5) f =
    ignore (f ());
    let best = ref infinity in
    for _ = 1 to reps do
      let t0 = Unix.gettimeofday () in
      ignore (f ());
      best := Float.min !best (Unix.gettimeofday () -. t0)
    done;
    !best
  in
  let run () = Multicore.run_plan grid ext plan ~inputs in
  let off_s = wall_of run in
  let traced_events = ref 0 in
  let on_s =
    wall_of (fun () ->
        let sink = Obs.create () in
        let out = Obs.with_sink sink run in
        traced_events := List.length (Obs.events sink);
        out)
  in
  let sim_sink = Obs.create () in
  let sim_events =
    Obs.with_sink sim_sink (fun () ->
        ignore
          (Result.get_ok (Simulate.run_plan params ext plan)
            : Simulate.timing);
        List.length (Obs.events sim_sink))
  in
  Format.printf
    "pooled plan, tracing off: %8.2f ms/plan@.pooled plan, tracing on:  \
     %8.2f ms/plan (x%.2f, %d events)@.simulated replay: %d sim-clock \
     events@."
    (1e3 *. off_s) (1e3 *. on_s) (on_s /. off_s) !traced_events sim_events;
  write_artifact "trace"
    [
      ("off_seconds", Json.Num off_s);
      ("on_seconds", Json.Num on_s);
      ("overhead_factor", Json.Num (on_s /. off_s));
      ("spmd_events", json_int !traced_events);
      ("simulate_events", json_int sim_events);
    ]

(* ------------------------------------------------------------------ *)
(* Search engine benchmarks                                            *)
(* ------------------------------------------------------------------ *)

(* The same subcomputation under two output names: the memo cache solves it
   once and α-renames the cached solutions for the second occurrence. *)
let cse_text =
  {|
extents a=64, b=64, c=64, k=64
T1[a,b] = sum[k] X[a,k] * Y[k,b]
T2[a,c] = sum[b] T1[a,b] * W[b,c]
T3[a,b] = sum[k] X[a,k] * Y[k,b]
S[c,b] = sum[a] T2[a,c] * T3[a,b]
|}

(* One timed execution, returning its result; fast runs (< 0.3 s) are
   re-measured best-of-5 so millisecond cases are not timer noise, while
   the seconds-scale corpus cases pay a single execution. *)
let best_of f =
  let once () =
    let t0 = Unix.gettimeofday () in
    let r = f () in
    (Unix.gettimeofday () -. t0, r)
  in
  let first, r = once () in
  if first >= 0.3 then (first, r)
  else
    ( List.fold_left
        (fun acc _ -> Float.min acc (fst (once ())))
        first [ 1; 2; 3; 4 ],
      r )

let plan_str p = Format.asprintf "%a" Plan.pp p

let search_cfg () =
  let grid = Grid.create_exn ~procs:16 in
  let rcost = Rcost.of_params params ~side:(Grid.side grid) in
  Search.default_config ~grid ~params ~rcost ()

(* The seconds-scale instance: a 10-tensor, rank-7 random einsum whose
   node T2 prices over a million candidates at P = 16. Solved [solves]
   times in this process: the median time and the median major and minor
   words (Gc.counters deltas) per solve, the first solve's time and words
   apart (it grows the domain's candidate store to this instance's high
   water), and the store's retained bytes afterwards. *)
let seconds_scale ~cfg ~solves =
  let ext, tree =
    Gencorpus.random_einsum ~seed:13 ~tensors:10 ~rank:7 ~lo:6 ~hi:16
  in
  let solve () =
    let minor0, _, major0 = Gc.counters () in
    let t0 = Unix.gettimeofday () in
    let plan = Result.get_ok (Search.optimize cfg ext tree) in
    let seconds = Unix.gettimeofday () -. t0 in
    let minor1, _, major1 = Gc.counters () in
    (plan, seconds, major1 -. major0, minor1 -. minor0)
  in
  let runs = List.init solves (fun _ -> solve ()) in
  let median f =
    let a = Array.of_list (List.map f runs) in
    Array.sort Float.compare a;
    a.(Array.length a / 2)
  in
  let sink = Obs.create () in
  let plan, _, _, _ = Obs.with_sink sink solve in
  let counter k =
    Option.value ~default:0 (List.assoc_opt k (Obs.counters sink))
  in
  let generated = counter "search.solutions_generated" in
  let identical =
    List.for_all (fun (p, _, _, _) -> plan_str p = plan_str plan) runs
  in
  let _, first_s, first_major, _ = List.hd runs in
  let seconds = median (fun (_, s, _, _) -> s) in
  let major = median (fun (_, _, w, _) -> w) in
  let minor = median (fun (_, _, _, w) -> w) in
  let store = Search.store_bytes () in
  Format.printf
    "einsum-10t-r7 (seed 13) %d steps, %d candidates: median %.1f ms over \
     %d solves (first %.1f ms), %.2f M major and %.2f M minor words per \
     solve (first %.2f M major), store %.1f MB, plans identical %b@."
    (List.length plan.Plan.steps)
    generated (1e3 *. seconds) solves (1e3 *. first_s) (major /. 1e6)
    (minor /. 1e6) (first_major /. 1e6)
    (float_of_int store /. 1e6)
    identical;
  Json.Obj
    [
      ("name", Json.Str "einsum-10t-r7-seed13");
      ("procs", json_int (Grid.procs cfg.Search.grid));
      ("plan_steps", json_int (List.length plan.Plan.steps));
      ("solutions_generated", json_int generated);
      ("solutions_kept", json_int (counter "search.solutions_kept"));
      ("solves", json_int solves);
      ("median_seconds", Json.Num seconds);
      ("major_words", Json.Num major);
      ("minor_words", Json.Num minor);
      ("first_seconds", Json.Num first_s);
      ("first_major_words", Json.Num first_major);
      ("store_bytes", json_int store);
      ("plans_identical", Json.Bool identical);
    ]

(* Times the DP search on the generated seconds-scale corpus
   (Gencorpus.bench_corpus) plus a repeated-subexpression problem where
   the memo cache actually hits: cache-free and memoized, then the
   greedy seed (validated and timed against the exact DP) and the
   anytime ladder (checked to converge on the exact optimum). Checks the
   memoized plan is byte-identical to the cache-free one, then times the
   seconds-scale instance ([seconds_scale]), and writes
   BENCH_search.json, recording the host's core count and the memoized
   solve's memo and solution counters. *)
let search () =
  section "Search engine: the sequential DP on the generated corpus";
  let cfg = search_cfg () in
  let cases =
    let cse =
      let problem, _, tree = load cse_text in
      { Gencorpus.name = "cse-16"; ext = problem.Problem.extents; tree }
    in
    cse :: Gencorpus.bench_corpus ()
  in
  let rows =
    List.map
      (fun { Gencorpus.name; ext; tree } ->
        let solve ~memo () =
          Result.get_ok (Search.optimize ~memo cfg ext tree)
        in
        let counter sink k =
          Option.value ~default:0 (List.assoc_opt k (Obs.counters sink))
        in
        let seq_s, seq_plan = best_of (fun () -> solve ~memo:false ()) in
        let memo_s, _ = best_of (fun () -> solve ~memo:true ()) in
        let memo_sink = Obs.create () in
        let memo_plan =
          Obs.with_sink memo_sink (fun () -> solve ~memo:true ())
        in
        let hits = counter memo_sink "search.memo_hits" in
        let misses = counter memo_sink "search.memo_misses" in
        let generated = counter memo_sink "search.solutions_generated" in
        let kept = counter memo_sink "search.solutions_kept" in
        let identical = String.equal (plan_str seq_plan) (plan_str memo_plan) in
        let greedy_s, greedy_plan =
          best_of (fun () ->
              Result.get_ok (plan_tree ~strategy:Search.Greedy cfg ext tree))
        in
        let greedy_valid = Result.is_ok (Plan.validate greedy_plan) in
        let greedy_cost = Plan.comm_cost greedy_plan in
        let exact_cost = Plan.comm_cost seq_plan in
        let rounds = ref 0 in
        let anytime_plan =
          Result.get_ok
            (plan_tree ~strategy:Search.Anytime
               ~on_round:(fun _ -> incr rounds)
               cfg ext tree)
        in
        let converged =
          Float.equal (Plan.comm_cost anytime_plan) exact_cost
        in
        let steps = List.length seq_plan.Plan.steps in
        Format.printf
          "%-14s %d steps  seq %8.2f ms  memo %8.2f ms (%d hits / %d \
           misses, %d of %d solutions kept)  identical %b@.  greedy %8.2f \
           ms (%5.2f%% of exact, valid %b, cost %.4g vs %.4g)  anytime %d \
           rounds, converged %b@."
          name steps (1e3 *. seq_s) (1e3 *. memo_s) hits misses kept
          generated identical (1e3 *. greedy_s)
          (100. *. greedy_s /. seq_s)
          greedy_valid greedy_cost exact_cost !rounds converged;
        [
          ("name", Json.Str name);
          ("plan_steps", json_int steps);
          ("sequential_seconds", Json.Num seq_s);
          ("memo_seconds", Json.Num memo_s);
          ("speedup_memo", Json.Num (seq_s /. memo_s));
          ("memo_hits", json_int hits);
          ("memo_misses", json_int misses);
          ("solutions_generated", json_int generated);
          ("solutions_kept", json_int kept);
          ("plans_identical", Json.Bool identical);
          ( "greedy",
            Json.Obj
              [
                ("seconds", Json.Num greedy_s);
                ("fraction_of_exact", Json.Num (greedy_s /. seq_s));
                ("valid", Json.Bool greedy_valid);
                ("cost", Json.Num greedy_cost);
                ("exact_cost", Json.Num exact_cost);
              ] );
          ( "anytime",
            Json.Obj
              [
                ("rounds", json_int !rounds); ("converged", Json.Bool converged);
              ] );
        ])
      cases
  in
  write_artifact "search" ~cases:rows
    [ ("seconds_scale", seconds_scale ~cfg ~solves:7) ]

(* ------------------------------------------------------------------ *)
(* Multi-term sums: cross-term CSE vs per-term-independent planning    *)
(* ------------------------------------------------------------------ *)

(* Times the sum optimizer on the planted-sharing corpus
   (Gencorpus.sum_bench_corpus) against the no-sharing baseline
   (max_groups:0 — every term planned independently), validates each
   optimized sum plan, and checks the memo-free walk returns the
   byte-identical plan. Writes BENCH_sums.json; CI asserts
   "plans_identical": true and a strictly positive saving on the planted
   cases. *)
let sums () =
  section "Sum optimizer: cross-term CSE vs per-term-independent planning";
  let cfg = search_cfg () in
  let sum_str ext s = Format.asprintf "%a" (Plan.pp_sum ext) s in
  let rows =
    List.map
      (fun { Gencorpus.sname; sext; sum } ->
        let solve ?memo ?max_groups () =
          Result.get_ok (Search.optimize_sum ?memo ?max_groups cfg sext sum)
        in
        let opt_s, opt = best_of (fun () -> solve ()) in
        let indep_s, indep = best_of (fun () -> solve ~max_groups:0 ()) in
        let walk = solve ~memo:false () in
        let identical = String.equal (sum_str sext opt) (sum_str sext walk) in
        let valid = Result.is_ok (Plan.validate_sum ~ext:sext opt) in
        let opt_c = opt.Plan.sum_comm_cost
        and indep_c = indep.Plan.sum_comm_cost in
        let saving = 1.0 -. (opt_c /. indep_c) in
        Format.printf
          "%-15s %d terms, %d shared  sum-opt %9.4f s comm (%.2f ms \
           search)  independent %9.4f s comm (%.2f ms search)  saving \
           %5.1f%%  valid %b  memo-free identical %b@."
          sname
          (List.length opt.Plan.terms)
          (List.length opt.Plan.shared)
          opt_c (1e3 *. opt_s) indep_c (1e3 *. indep_s) (100. *. saving)
          valid identical;
        [
          ("name", Json.Str sname);
          ("terms", json_int (List.length opt.Plan.terms));
          ("shared_values", json_int (List.length opt.Plan.shared));
          ("sum_comm_seconds", Json.Num opt_c);
          ("independent_comm_seconds", Json.Num indep_c);
          ("saving_fraction", Json.Num saving);
          ("optimize_seconds", Json.Num opt_s);
          ("independent_seconds", Json.Num indep_s);
          ("plans_identical", Json.Bool identical);
          ("valid", Json.Bool valid);
        ])
      (Gencorpus.sum_bench_corpus ())
  in
  write_artifact "sums" ~cases:rows []

(* ------------------------------------------------------------------ *)
(* Topology: uniform vs 2-procs/node node-aware planning               *)
(* ------------------------------------------------------------------ *)

(* Plans CCSD-small plus seeded Gencorpus instances at procs=16 under
   (a) the uniform topology restricted to the 4x4 square — asserted
   byte-identical to the plain square search, the bit-for-bit replay
   gate — and (b) a 2-procs/node machine with a fast intra-node link,
   where the shape search enumerates every R x C factorization. The
   node-aware saving compares the best shape against the best square
   plan under the *same* node-aware pricing (costs across different
   pricings are not comparable). Writes BENCH_topology.json; CI asserts
   "plans_identical": true on every uniform row. *)
let topology_bench () =
  section "Topology: uniform replay gate and node-aware shape choice";
  let procs = 16 in
  let square = Grid.create_exn ~procs in
  let topo_uniform = Topology.uniform params in
  let topo_node =
    Topology.node_aware params ~intra_latency:1e-8 ~intra_bandwidth:1e11
  in
  let config_of topo g =
    Search.default_config ~grid:g ~params:(Topology.params topo)
      ~rcost:(Rcost.of_topology topo g) ()
  in
  let plain_cfg =
    Search.default_config ~grid:square ~params
      ~rcost:(Rcost.of_params params ~side:(Grid.side square))
      ()
  in
  let shape g = Printf.sprintf "%dx%d" (Grid.rows g) (Grid.cols g) in
  let instances =
    (let _, _, tree = load ccsd_small_text in
     let problem = Result.get_ok (Parser.parse ccsd_small_text) in
     [ { Gencorpus.name = "ccsd-small"; ext = problem.Problem.extents; tree } ])
    @ Gencorpus.fuzz ~seed:20260809 ~count:6
  in
  let rows =
    List.filter_map
      (fun { Gencorpus.name; ext; tree } ->
        match Search.optimize plain_cfg ext tree with
        | Error _ -> None (* infeasible at this grid: skip *)
        | Ok plain ->
          let topo_square =
            Result.get_ok (Search.optimize (config_of topo_uniform square) ext tree)
          in
          let identical = String.equal (plan_str plain) (plan_str topo_square) in
          let node_s, node_best =
            best_of (fun () ->
                Result.map Search.tree_plan
                  (Search.plan ext
                     (Search.request
                        (Search.Shapes
                           {
                             topo = topo_node;
                             procs;
                             base = config_of topo_node square;
                           })
                        (Search.Tree tree)))
                |> Result.get_ok)
          in
          let square_node =
            Result.get_ok (Search.optimize (config_of topo_node square) ext tree)
          in
          let node_c = Plan.comm_cost node_best
          and square_node_c = Plan.comm_cost square_node in
          let saving =
            if square_node_c = 0.0 then 0.0 else 1.0 -. (node_c /. square_node_c)
          in
          let intra = Search.intra_axis_count topo_node node_best.Plan.grid in
          Format.printf
            "%-18s uniform %s %9.4f s comm (replay identical %b)  node \
             %s %9.4f s comm (%d intra axes, %.2f ms search)  vs square \
             %9.4f s  saving %5.1f%%@."
            name (shape square) (Plan.comm_cost plain) identical
            (shape node_best.Plan.grid)
            node_c intra (1e3 *. node_s) square_node_c (100. *. saving);
          Some
            [
              ("name", Json.Str name);
              ("uniform_grid", Json.Str (shape square));
              ("uniform_comm_seconds", Json.Num (Plan.comm_cost plain));
              ("plans_identical", Json.Bool identical);
              ("node_grid", Json.Str (shape node_best.Plan.grid));
              ("node_comm_seconds", Json.Num node_c);
              ("intra_axes", json_int intra);
              ("square_node_comm_seconds", Json.Num square_node_c);
              ("saving_fraction", Json.Num saving);
            ])
      instances
  in
  write_artifact "topology" ~cases:rows
    [
      ("procs", json_int procs);
      ("procs_per_node", json_int params.Params.procs_per_node);
    ]

(* ------------------------------------------------------------------ *)
(* The planning daemon: load generator                                 *)
(* ------------------------------------------------------------------ *)

(* The tight-deadline regime's request: the 10-tensor, rank-7 random
   einsum [Gencorpus.random_einsum ~seed:13 ~tensors:10 ~rank:7 ~lo:6
   ~hi:16], written out as problem text. At 16 procs its exact search
   takes 0.19–0.22 s and its beam search 15–22 ms through the daemon on
   a shared 2-core Xeon host, once the worker's candidate store has
   grown; a worker's first exact solve takes about twice as long. A
   fixed budget would stop tripping the exact rung once the search got
   faster, so the budget is derived from the two undeadlined times
   measured just before: the exact rung's 60% share falls at half its
   undeadlined time and trips, and the beam rung's 80% of the rest,
   about 0.27 of the exact time, holds the beam search with room to
   spare; should it not, the greedy rung serves the request. A search
   polls its deadline at most about 6 ms apart, or 15 ms while it grows
   its candidate store. *)
let tight_text =
  {|
extents i0=12, i1=10, i10=11, i11=16, i12=6, i13=11, i14=12, i15=6, i16=15, i17=10, i18=15, i19=8, i2=8, i20=9, i21=6, i22=10, i23=9, i24=16, i3=14, i4=13, i5=13, i6=13, i7=10, i8=16, i9=9
T9[i12,i11,i8,i13] = sum[i14,i15,i16] A5[i13,i14,i15,i16] * A6[i12,i8,i11,i14,i15,i16]
T7[i9,i8,i11,i12] = sum[i13] A4[i9,i13] * T9[i12,i11,i8,i13]
T5[i9,i8,i10] = sum[i11,i12] A3[i10,i11,i12] * T7[i9,i8,i11,i12]
T3[i4,i1,i7,i8,i9] = sum[i10] A2[i1,i4,i7,i10] * T5[i9,i8,i10]
T14[i9,i5,i20,i21,i22] = sum[i23,i24] A7[i21,i5,i23,i24] * A8[i9,i22,i20,i23,i24]
T13[i9,i5,i6,i17,i18,i19] = sum[i20,i21,i22] T14[i9,i5,i20,i21,i22] * A9[i6,i17,i19,i18,i20,i21,i22]
T12[i5,i6,i3,i7,i8,i9] = sum[i17,i18,i19] T13[i9,i5,i6,i17,i18,i19] * A10[i8,i7,i3,i17,i18,i19]
T2[i1,i3,i4,i5,i6] = sum[i7,i8,i9] T3[i4,i1,i7,i8,i9] * T12[i5,i6,i3,i7,i8,i9]
S[i0,i1,i2,i3] = sum[i4,i5,i6] A1[i0,i2,i4,i5,i6] * T2[i1,i3,i4,i5,i6]
|}

(* Drives an in-process Server (the exact engine behind bin/tce_serve)
   through four regimes and writes BENCH_serve.json:

   - throughput and cold-vs-cache-hit latency on a stream of small
     problems (distinct extents for cold, one repeated for hits), with a
     byte-identity check between the cold plan and its later cache hit;
   - rejection rate at overload (single worker pinned by debug_sleep,
     burst past the admission bound);
   - degradation rate under tight deadlines ([tight_text] against a
     budget derived from both searches' undeadlined times, which the
     JSON records, so that its exact search cannot meet it but its beam
     search can). *)
let serve_bench () =
  section "Planning daemon: throughput, cache, overload, degradation";
  let matmul_expr n =
    Printf.sprintf
      "extents a=%d, b=16, c=16\nC[a,c] = sum[b] A[a,b] * B[b,c]\n" n
  in
  let opt_line ?deadline_ms ?(procs = 4) ~id expr =
    Json.to_string
      (Json.Obj
         ([
            ("id", Json.Num (float_of_int id));
            ("op", Json.Str "optimize");
            ("expr", Json.Str expr);
            ("procs", Json.Num (float_of_int procs));
          ]
         @
         match deadline_ms with
         | None -> []
         | Some ms -> [ ("deadline_ms", Json.Num ms) ]))
  in
  let field name json =
    match Json.member name json with
    | Some v -> v
    | None -> Json.Null
  in
  let status json =
    match field "status" json with Json.Str s -> s | _ -> "?"
  in
  let timed_call server line =
    let t0 = Unix.gettimeofday () in
    let resp = Json.parse_exn (Server.call_line server line) in
    (Unix.gettimeofday () -. t0, resp)
  in
  let percentile xs p =
    let a = Array.of_list xs in
    Array.sort compare a;
    a.(min (Array.length a - 1)
         (int_of_float (ceil (p /. 100. *. float_of_int (Array.length a))) - 1
         |> max 0))
  in

  (* -- cold vs cache-hit latency + byte identity -- *)
  let server =
    Server.create
      (Server.default_config ~workers:2 ~queue_capacity:64 ~cache_capacity:256
         ())
  in
  let cold_n = 24 in
  let cold_lat = ref [] in
  for k = 1 to cold_n do
    (* distinct extents => distinct cache keys => every one a cold miss *)
    let dt, resp = timed_call server (opt_line ~id:k (matmul_expr (8 + k))) in
    assert (status resp = "ok");
    cold_lat := dt :: !cold_lat
  done;
  let probe = matmul_expr 8 in
  let _, cold_resp = timed_call server (opt_line ~id:100 probe) in
  let hit_n = 200 in
  let hit_lat = ref [] in
  let t_hits0 = Unix.gettimeofday () in
  for k = 1 to hit_n do
    let dt, resp = timed_call server (opt_line ~id:(100 + k) probe) in
    assert (status resp = "ok");
    hit_lat := dt :: !hit_lat
  done;
  let hits_elapsed = Unix.gettimeofday () -. t_hits0 in
  let _, hit_resp = timed_call server (opt_line ~id:999 probe) in
  let byte_identical =
    field "plan" cold_resp = field "plan" hit_resp
    && field "cached" hit_resp = Json.Bool true
  in
  let cache_stats = (Server.stats server).Server.cache in
  Server.drain server;
  Server.close server;
  let rps = float_of_int hit_n /. hits_elapsed in
  let cold_p50 = percentile !cold_lat 50. *. 1e3 in
  let cold_p99 = percentile !cold_lat 99. *. 1e3 in
  let hit_p50 = percentile !hit_lat 50. *. 1e3 in
  let hit_p99 = percentile !hit_lat 99. *. 1e3 in
  Format.printf
    "cache-hit throughput %.0f req/s@.cold latency p50 %.2f ms, p99 %.2f \
     ms@.hit  latency p50 %.2f ms, p99 %.2f ms@.cache hits %d, misses %d; \
     hit plan byte-identical to cold search: %b@."
    rps cold_p50 cold_p99 hit_p50 hit_p99 cache_stats.Plancache.hits
    cache_stats.Plancache.misses byte_identical;

  (* -- rejection rate at overload -- *)
  let server =
    Server.create
      (Server.default_config ~workers:1 ~queue_capacity:2 ~cache_capacity:8
         ~debug_ops:true ())
  in
  let lock = Mutex.create () in
  let cond = Condition.create () in
  let got = ref [] in
  let reply s =
    Mutex.lock lock;
    got := s :: !got;
    Condition.signal cond;
    Mutex.unlock lock
  in
  ignore
    (Server.submit_line server {|{"id":"pin","op":"debug_sleep","ms":400}|}
       ~reply
      : bool);
  let t0 = Unix.gettimeofday () in
  while Server.queue_depth server > 0 && Unix.gettimeofday () -. t0 < 5.0 do
    Unix.sleepf 0.002
  done;
  let burst = 20 in
  for k = 1 to burst do
    ignore
      (Server.submit_line server (opt_line ~id:k (matmul_expr 16)) ~reply
        : bool)
  done;
  Mutex.lock lock;
  while List.length !got < burst + 1 do
    Condition.wait cond lock
  done;
  Mutex.unlock lock;
  let statuses = List.map (fun s -> status (Json.parse_exn s)) !got in
  let rejected =
    List.length (List.filter (String.equal "overloaded") statuses)
  in
  Server.drain server;
  Server.close server;
  let rejection_rate = float_of_int rejected /. float_of_int burst in
  Format.printf
    "overload: %d/%d burst requests rejected (%.0f%%) past a queue bound \
     of 2@."
    rejected burst (100. *. rejection_rate);

  (* -- degradation under tight deadlines -- *)
  let tight_procs = 16 in
  let tight_server degrade =
    Server.create
      (Server.default_config ~workers:1 ~queue_capacity:8 ~cache_capacity:0
         ~degrade ())
  in
  (* Undeadlined time of the request's first rung, median of three
     after one untimed request that grows the worker's candidate store:
     `Never runs the exact search, `Always the beam search. *)
  let search_ms degrade =
    let server = tight_server degrade in
    let times =
      List.init 4 (fun k ->
          let dt, resp =
            timed_call server (opt_line ~id:k ~procs:tight_procs tight_text)
          in
          assert (status resp = "ok");
          dt)
    in
    Server.drain server;
    Server.close server;
    percentile (List.tl times) 50. *. 1e3
  in
  let exact_ms = search_ms `Never in
  let beam_ms = search_ms `Always in
  let deadline_ms = exact_ms /. 2. /. 0.6 in
  let server = tight_server `Auto in
  let tight_n = 6 in
  let tight =
    List.init tight_n (fun k ->
        let _, resp =
          timed_call server
            (opt_line ~id:k ~procs:tight_procs ~deadline_ms tight_text)
        in
        ( status resp,
          field "approximate" resp = Json.Bool true ))
  in
  let greedy_seeded = (Server.stats server).Server.greedy_seeded in
  Server.drain server;
  Server.close server;
  let degraded =
    List.length (List.filter (fun (s, a) -> s = "ok" && a) tight)
  in
  let exceeded =
    List.length (List.filter (fun (s, _) -> s = "deadline_exceeded") tight)
  in
  let degradation_rate = float_of_int degraded /. float_of_int tight_n in
  Format.printf
    "tight deadlines (%.0f ms on a 10-tensor einsum, %d procs; undeadlined \
     exact %.1f ms, beam %.1f ms): %d/%d served approximate (%d by the \
     greedy seed), %d/%d deadline_exceeded@."
    deadline_ms tight_procs exact_ms beam_ms degraded tight_n greedy_seeded
    exceeded tight_n;

  write_artifact "serve"
    [
      ("cache_hit_requests_per_sec", Json.Num rps);
      ( "cold_latency_ms",
        Json.Obj [ ("p50", Json.Num cold_p50); ("p99", Json.Num cold_p99) ] );
      ( "cache_hit_latency_ms",
        Json.Obj [ ("p50", Json.Num hit_p50); ("p99", Json.Num hit_p99) ] );
      ( "cache",
        Json.Obj
          [
            ("hits", json_int cache_stats.Plancache.hits);
            ("misses", json_int cache_stats.Plancache.misses);
            ("hit_requests", json_int (hit_n + 1));
            ("cold_requests", json_int (cold_n + 1));
          ] );
      ("hit_plan_byte_identical", Json.Bool byte_identical);
      ( "overload",
        Json.Obj
          [
            ("burst", json_int burst);
            ("rejected", json_int rejected);
            ("rejection_rate", Json.Num rejection_rate);
          ] );
      ( "tight_deadline",
        Json.Obj
          [
            ("procs", json_int tight_procs);
            ("deadline_ms", Json.Num deadline_ms);
            ("exact_ms", Json.Num exact_ms);
            ("beam_ms", Json.Num beam_ms);
            ("requests", json_int tight_n);
            ("degraded", json_int degraded);
            ("greedy_seeded", json_int greedy_seeded);
            ("deadline_exceeded", json_int exceeded);
            ("degradation_rate", Json.Num degradation_rate);
          ] );
    ]

(* ------------------------------------------------------------------ *)
(* Dispatch                                                            *)
(* ------------------------------------------------------------------ *)

let sections =
  [
    ("table1", table1);
    ("table2", table2);
    ("fig1", fig1);
    ("fig2", fig2);
    ("sweep-procs", sweep_procs);
    ("sweep-memory", sweep_memory);
    ("ablation", ablation);
    ("machines", machines);
    ("csv", csv);
    ("validate", validate);
    ("kernels", kernels);
    ("spmd", spmd);
    ("trace", trace);
    ("search", search);
    ("sums", sums);
    ("topology", topology_bench);
    ("serve", serve_bench);
  ]

let default =
  [
    "table1"; "table2"; "fig1"; "fig2"; "sweep-procs"; "sweep-memory";
    "ablation"; "machines"; "validate";
  ]

let () =
  let requested =
    match Array.to_list Sys.argv with
    | _ :: (_ :: _ as args) -> args
    | _ -> default
  in
  List.iter
    (fun name ->
      match List.assoc_opt name sections with
      | Some f -> f ()
      | None ->
        Format.eprintf "unknown section %S; available: %s@." name
          (String.concat ", " (List.map fst sections));
        exit 1)
    requested
