(* tce_opt — command-line front end of the tensor-contraction engine.

   Subcommands:
     optimize      parse a problem, run the memory-constrained search,
                   print the plan and the paper-style table
     codegen       print fused pseudo-code (sequential view)
     opcount       operation-minimization report for multi-factor products
     characterize  write a communication characterization file
     tables        reproduce the paper's Tables 1 and 2
     trace-check   validate a Chrome trace-event JSON file *)

open Cmdliner
open Tce

let load_tree path =
  let ( let* ) = Result.bind in
  let* problem = Parser.parse_file path in
  let* tree = Opmin.optimize_to_tree problem in
  Ok (problem, tree)

let or_die = function
  | Ok v -> v
  | Error msg ->
    Format.eprintf "error: %s@." msg;
    exit 1

(* Typed-error variant: one line on stderr and the error's own exit code
   (Tce_error.exit_code — distinct per constructor), so scripts can tell
   a crashed simulated node from a memory-infeasible problem. *)
let or_die_tce = function
  | Ok v -> v
  | Error e ->
    Format.eprintf "error: %s@." (Tce_error.to_string e);
    exit (Tce_error.exit_code e)

(* ---------------- arguments ---------------- *)

let file_arg =
  Arg.(required & pos 0 (some file) None & info [] ~docv:"FILE"
         ~doc:"Problem description (see the README for the syntax).")

let procs_arg =
  Arg.(value & opt int 16 & info [ "p"; "procs" ] ~docv:"P"
         ~doc:"Number of processors (a positive perfect square).")

let mem_gb_arg =
  Arg.(value & opt (some float) None & info [ "mem-gb" ] ~docv:"GB"
         ~doc:"Per-node memory limit in GB (default: the machine's 4 GB).")

let flops_arg =
  Arg.(value & opt (some float) None & info [ "mflops" ] ~docv:"MFLOPS"
         ~doc:"Per-processor flop rate in Mflop/s.")

let latency_arg =
  Arg.(value & opt (some float) None & info [ "latency-us" ] ~docv:"US"
         ~doc:"Use a uniform alpha-beta machine with this per-step latency \
               (microseconds).")

let bandwidth_arg =
  Arg.(value & opt (some float) None & info [ "bandwidth-mbs" ] ~docv:"MBS"
         ~doc:"Uniform machine link bandwidth (MB/s).")

let fusion_arg =
  let mode_conv =
    Arg.enum [ ("all", `All); ("none", `None); ("memmin", `Memmin) ]
  in
  Arg.(value & opt mode_conv `All & info [ "fusion" ] ~docv:"MODE"
         ~doc:"Fusion search mode: $(b,all) (integrated search), $(b,none) \
               (fusion-free baseline), $(b,memmin) (sequential \
               memory-minimal fusion, then distribute).")

let code_flag =
  Arg.(value & flag & info [ "code" ]
         ~doc:"Also print the plan as annotated SPMD pseudo-code (fused \
               loop bands with per-statement Cannon stanzas).")

let overlap_arg =
  Arg.(value & opt float 1.0 & info [ "overlap" ] ~docv:"FACTOR"
         ~doc:"Exposed fraction of overlappable communication, in [0,1]: \
               $(b,1.0) (default) is the paper's serialized \
               shift-then-multiply cost, $(b,0.0) models perfect \
               communication/computation overlap (per-step max). The \
               search objective is unchanged; the plan is re-costed under \
               the overlap-aware law and both totals are reported.")

let faults_arg =
  Arg.(value & opt (some int) None & info [ "faults" ] ~docv:"SEED"
         ~doc:"Run a seeded fault scenario against the optimized plan: \
               replay it on a cluster with degraded links, stragglers and \
               transient message loss, crash a node mid-run, and replan on \
               the surviving sub-grid, reporting the communication-cost \
               delta. The same seed reproduces the same faults exactly.")

let beam_arg =
  Arg.(value & opt (some int) None & info [ "beam" ] ~docv:"K"
         ~doc:"Anytime search: keep only the $(docv) best partial solutions \
               per node under the engine's deterministic total order. \
               Faster on large trees but no longer guaranteed optimal; off \
               by default.")

let strategy_arg =
  let strat =
    Arg.enum [ ("exact", `Exact); ("greedy", `Greedy); ("anytime", `Anytime) ]
  in
  Arg.(value & opt strat `Exact & info [ "strategy" ] ~docv:"S"
         ~doc:"Search strategy: $(b,exact) (default: the optimal DP, \
               optionally narrowed with $(b,--beam)); $(b,greedy) (the \
               fusion-capped beam-1 seed plan, produced in a small \
               fraction of the exact search's time — validated but not \
               optimal); $(b,anytime) (greedy seed, then widening beam \
               rounds, then the exact pass — each round's best cost is \
               reported on stderr and the final plan equals the exact \
               optimum). $(b,greedy) and $(b,anytime) ignore $(b,--beam).")

let trace_arg =
  Arg.(value & opt (some string) None & info [ "trace" ] ~docv:"FILE"
         ~doc:"Record the whole run as a Chrome trace-event JSON file \
               loadable in Perfetto or chrome://tracing: search counters, \
               a simulated-clock replay of the plan (per-Cannon-step \
               shift/rotate/compute spans), and a scaled-down real SPMD \
               execution (per-rank send/recv/multiply/barrier spans on \
               the wall clock).")

let topology_arg =
  let topo = Arg.enum [ ("uniform", `Uniform); ("node", `Node) ] in
  Arg.(value & opt topo `Uniform & info [ "topology" ] ~docv:"T"
         ~doc:"Network model: $(b,uniform) (default — the paper's flat \
               alpha-beta torus; every existing plan is byte-identical) or \
               $(b,node) (separate intra-node links: the search enumerates \
               every R x C factorization of P, prices each grid axis by \
               its link class under the row-major rank-to-node packing, \
               and keeps the cheapest shape).")

let nodes_arg =
  Arg.(value & opt (some int) None & info [ "nodes" ] ~docv:"N"
         ~doc:"With $(b,--topology node): number of nodes; the P ranks are \
               packed row-major, P/N consecutive ranks per node (N must \
               divide P). Default: the machine's own procs-per-node.")

let intra_latency_arg =
  Arg.(value & opt float 1.0 & info [ "intra-latency-us" ] ~docv:"US"
         ~doc:"With $(b,--topology node): intra-node link latency \
               (microseconds).")

let intra_bandwidth_arg =
  Arg.(value & opt float 1000.0 & info [ "intra-bandwidth-mbs" ] ~docv:"MBS"
         ~doc:"With $(b,--topology node): intra-node link bandwidth (MB/s).")

(* The paper's machine on the square grid of [procs]. *)
let square_config procs =
  Search.base_config (or_die (Search.machine ~topology:`Uniform ~procs ()))

(* ---------------- optimize ---------------- *)

(* The --faults scenario: replay the plan under a seeded fault model; when
   the injected crash fires, replan via [replan] (surviving square
   sub-grid under the uniform topology, best surviving factorization
   under a node-aware one) and report the degradation. *)
let fault_scenario ~seed ~topo ~params ~ext ~plan ~replan =
  let grid = plan.Plan.grid in
  let healthy = or_die_tce (Simulate.run_plan ?topo params ext plan) in
  let scenario_rng = Prng.create ~seed in
  let crash_rank = Prng.int scenario_rng ~bound:(Grid.procs grid) in
  let crash_at = 0.5 *. healthy.Simulate.total_seconds in
  let spec =
    { (Fault.default ~seed) with Fault.crash = Some (crash_rank, crash_at) }
  in
  let faults = Fault.make spec grid in
  Format.printf
    "@.=== fault scenario (seed %d) ===@.healthy replay: %a@.injected \
     crash: rank %d at t=%.1f s@."
    seed Simulate.pp_timing healthy crash_rank crash_at;
  (match Simulate.run_plan ~faults ?topo params ext plan with
  | Ok degraded_t ->
    Format.printf
      "degraded replay (no crash reached): %a (x%.2f slower)@."
      Simulate.pp_timing degraded_t
      (degraded_t.Simulate.total_seconds /. healthy.Simulate.total_seconds)
  | Error (Tce_error.Node_crashed { rank; at }) ->
    Format.printf "replay aborted: node %d crashed at t=%.1f s@." rank at;
    let report = or_die (replan ~healthy:plan) in
    Format.printf "%a@." Degrade.pp_report report
  | Error e -> or_die_tce (Error e));
  Format.printf "%a@." Fault.pp_trace faults

(* The traced extras behind [--trace]: replay the plan on the simulated
   cluster (sim-clock spans for every shift round, rotation, redistribution
   and compute) and run a scaled-down real SPMD execution so the trace also
   carries per-rank wall-clock spans. The execution runs on the searched
   plan's own shape with each axis clamped to 3 (a square request keeps
   its [min P 9] grid), planned on the request's topology. *)
let traced_runs ~topo ~params ~ext ~tree ~plan ~overlap =
  ignore
    (or_die_tce (Simulate.run_plan ?topo ~overlap params ext plan)
      : Simulate.timing);
  let rows = min 3 (Grid.rows plan.Plan.grid)
  and cols = min 3 (Grid.cols plan.Plan.grid) in
  let grid' = Grid.create_rect_exn ~rows ~cols in
  let ext' =
    Extents.scale ext ~factor_num:1 ~factor_den:40
      ~min_extent:(max 2 (max rows cols))
  in
  let topo' = Option.value topo ~default:(Topology.uniform params) in
  let rcost' = Rcost.of_topology topo' grid' in
  let cfg' = Search.default_config ~grid:grid' ~params ~rcost:rcost' () in
  let plan' = or_die (Search.optimize cfg' ext' tree) in
  let seq = or_die (Tree.to_sequence tree) in
  let inputs = Sequence.random_inputs ext' ~seed:20260806 seq in
  ignore (Multicore.run_plan grid' ext' plan' ~inputs : Dense.t)

(* Everything printed after a single-tree plan is found: the plan, the
   paper-style table, the overlap law, and the --code/--faults/--trace
   extras, replayed on the request's topology. *)
let report_plan ~topo ~params ~ext ~tree ~plan ~code ~overlap_factor
    ~faults ~trace ~sink ~replan =
  Format.printf "%a@.@.%a@.%s@." Plan.pp plan Table.pp
    (Exptables.plan_table plan)
    (Exptables.totals_line plan);
  let overlap = or_die (Overlap.make ~factor:overlap_factor) in
  let serialized = Plan.total_seconds plan in
  let overlapped = Plan.overlapped_seconds ~overlap plan in
  Format.printf
    "overlap-aware cost (%a): serialized %.1f s, overlapped %.1f s \
     (%.1f s hidden)@."
    Overlap.pp overlap serialized overlapped (serialized -. overlapped);
  if code then
    Format.printf "@.%s@." (or_die (Parcode.emit ext tree plan));
  Option.iter
    (fun seed -> fault_scenario ~seed ~topo ~params ~ext ~plan ~replan)
    faults;
  match (trace, sink) with
  | Some path, Some sink ->
    traced_runs ~topo ~params ~ext ~tree ~plan ~overlap;
    Obs.uninstall ();
    or_die (Obs.write_chrome_json sink ~path);
    Format.printf "wrote %s (%d trace events, %d dropped)@." path
      (List.length (Obs.events sink))
      (Obs.dropped sink)
  | _ -> ()

let optimize_cmd =
  let run file procs mem_gb flops_mhz latency_us bandwidth_mbs fusion code
      overlap_factor faults beam strategy trace topology nodes
      intra_latency_us intra_bandwidth_mbs =
    let sink = Option.map (fun _ -> Obs.create ()) trace in
    Option.iter Obs.install sink;
    Fun.protect ~finally:Obs.uninstall @@ fun () ->
    let problem = or_die (Parser.parse_file file) in
    let ext = problem.Problem.extents in
    let computation = or_die (Opmin.optimize_to_computation problem) in
    let fusion_mode, objective = Baselines.of_mode fusion in
    let shape =
      or_die
        (Search.machine ~fusion_mode ?mem_gb ?mflops:flops_mhz ?latency_us
           ?bandwidth_mbs ?nodes ~intra_latency_us ~intra_bandwidth_mbs
           ~topology ~procs ())
    in
    let problem =
      match computation with
      | Opmin.Single tree -> Search.Tree tree
      | Opmin.Summed se -> Search.Sum se
    in
    let strategy =
      match (strategy, beam) with
      | `Exact, None -> Search.Exact
      | `Exact, Some k -> Search.Beam k
      | `Greedy, _ -> Search.Greedy
      | `Anytime, _ -> Search.Anytime
    in
    let req = { Search.problem; shape; strategy; objective } in
    let outcome =
      or_die
        (Search.plan
           ~on_round:(fun r ->
             Format.eprintf "anytime: width %s  best cost %.4e%s@."
               (match r.Search.width with
               | Some w -> string_of_int w
               | None -> "exact")
               r.Search.cost
               (if r.Search.improved then "  (improved)" else ""))
           ext req)
    in
    let params = (Search.base_config shape).Search.params in
    let topo =
      match shape with
      | Search.Shapes { topo; _ } ->
        (* Node-aware shape search (DESIGN.md §17): report the shape the
           search chose among the R x C factorizations. *)
        let grid =
          match outcome with
          | Search.Tree_plan p -> p.Plan.grid
          | Search.Sum_plan s -> s.Plan.sum_grid
        in
        Format.printf "%a@.chosen grid: %a (%d of 2 axes intra-node)@."
          Topology.pp topo Grid.pp grid
          (Search.intra_axis_count topo grid);
        Some topo
      | Search.Grid _ -> None
    in
    match (problem, outcome) with
    | Search.Tree tree, Search.Tree_plan plan ->
      report_plan ~topo ~params ~ext ~tree ~plan ~code ~overlap_factor
        ~faults ~trace ~sink
        ~replan:(fun ~healthy -> Degrade.replan ext req ~healthy)
    | _, Search.Sum_plan s ->
      (* The plan-replay extras are single-tree machinery. *)
      Format.printf "%a@." (Plan.pp_sum ext) s;
      if code || faults <> None || trace <> None then
        Format.eprintf
          "note: --code, --faults and --trace apply to single-term problems; \
           ignored for a multi-term sum@."
    | Search.Sum _, Search.Tree_plan _ -> assert false
  in
  Cmd.v
    (Cmd.info "optimize"
       ~doc:"Memory-constrained communication minimization for a problem file.")
    Term.(
      const run $ file_arg $ procs_arg $ mem_gb_arg $ flops_arg $ latency_arg
      $ bandwidth_arg $ fusion_arg $ code_flag $ overlap_arg $ faults_arg
      $ beam_arg $ strategy_arg $ trace_arg $ topology_arg
      $ nodes_arg $ intra_latency_arg $ intra_bandwidth_arg)

(* ---------------- codegen ---------------- *)

let codegen_cmd =
  let run file fusion =
    let problem, tree = or_die (load_tree file) in
    let ext = problem.Problem.extents in
    let prog =
      or_die
        (match fusion with
        | `None -> Loopnest.generate_unfused tree
        | `All | `Memmin ->
          let mm = Memmin.minimize ext tree in
          let fusions name =
            Index.set_of_list
              (Option.value ~default:[]
                 (List.assoc_opt name mm.Memmin.edge_fusions))
          in
          Loopnest.generate tree ~fusions)
    in
    Format.printf "%a@." Loopnest.pp prog;
    Format.printf "@.storage: %d words total, %d words of temporaries@."
      (Loopnest.storage_words ext prog)
      (Loopnest.temporary_words ext prog)
  in
  Cmd.v
    (Cmd.info "codegen"
       ~doc:"Print (memory-minimally fused, or unfused) pseudo-code.")
    Term.(const run $ file_arg $ fusion_arg)

(* ---------------- opcount ---------------- *)

let opcount_cmd =
  let run file =
    let problem = or_die (Parser.parse_file file) in
    let ext = problem.Problem.extents in
    List.iter
      (fun (d : Problem.def) ->
        let naive = Opmin.naive_flops ext d in
        let counter = ref 0 in
        let fresh () =
          incr counter;
          Printf.sprintf "%s__%d" (Aref.name d.Problem.lhs) !counter
        in
        let plan = or_die (Opmin.optimize_def ext ~fresh d) in
        Format.printf "%a:@.  naive %d flops, optimized %d flops (%.1fx)@."
          Aref.pp d.Problem.lhs naive plan.Opmin.flops
          (float_of_int naive /. float_of_int plan.Opmin.flops);
        List.iter
          (fun (bd : Problem.def) ->
            Format.printf "    %s = sum[%a] %s@."
              (Format.asprintf "%a" Aref.pp bd.Problem.lhs)
              Index.pp_list bd.Problem.sum
              (String.concat " * "
                 (List.map (Format.asprintf "%a" Aref.pp) bd.Problem.terms)))
          plan.Opmin.defs)
      problem.Problem.defs
  in
  Cmd.v
    (Cmd.info "opcount" ~doc:"Operation-minimization report per definition.")
    Term.(const run $ file_arg)

(* ---------------- characterize ---------------- *)

let characterize_cmd =
  let out_arg =
    Arg.(value & opt string "rcost.txt" & info [ "o"; "output" ] ~docv:"FILE"
           ~doc:"Output characterization file.")
  in
  let run procs out =
    let params = Params.itanium_2003 in
    let grid = or_die (Grid.create ~procs) in
    (* Measure the simulated machine, as the paper measured its cluster. *)
    let rcost =
      Rcost.characterize ~side:(Grid.side grid) ~samples:Rcost.default_samples
        ~measure:(fun ~axis ~words ->
          Simulate.measure_rotation params grid ~axis ~words)
    in
    or_die (Rcost.save rcost ~path:out);
    Format.printf "wrote %s (%a)@." out Rcost.pp rcost
  in
  Cmd.v
    (Cmd.info "characterize"
       ~doc:"Measure the simulated cluster and write an RCost \
             characterization file.")
    Term.(const run $ procs_arg $ out_arg)

(* ---------------- validate ---------------- *)

let validate_cmd =
  let div_arg =
    Arg.(value & opt int 40 & info [ "scale-div" ] ~docv:"N"
           ~doc:"Divide every extent by $(docv) (clamped to the grid side) \
                 before the numeric run, so paper-scale problems validate \
                 in seconds.")
  in
  let run file procs div =
    let problem, tree = or_die (load_tree file) in
    let cfg = square_config procs in
    let grid = cfg.Search.grid and params = cfg.Search.params in
    let side = Grid.side grid in
    let ext =
      Extents.scale problem.Problem.extents ~factor_num:1 ~factor_den:div
        ~min_extent:(max 2 side)
    in
    Format.printf "validation extents: %a@." Extents.pp ext;
    (* Plan under the memory-first plan's per-node peak, the tightest
       limit any plan meets, so the executed plan fuses as a plan at
       scale does. *)
    let limit =
      Plan.mem_per_node_bytes
        (Search.tree_plan
           (or_die
              (Search.plan ext
                 (Search.request ~objective:Search.Mem_first (Search.Grid cfg)
                    (Search.Tree tree)))))
    in
    Format.printf "memory limit: %.0f bytes per node (the memory-first peak)@."
      limit;
    let plan =
      or_die
        (Search.optimize
           { cfg with Search.mem_limit_bytes = Some limit }
           ext tree)
    in
    let seq = or_die (Tree.to_sequence tree) in
    let inputs = Sequence.random_inputs ext ~seed:20260705 seq in
    let reference = Sequence.eval ext ~inputs seq in
    (* The executor runs one domain per processor: modest grids only. *)
    let matches =
      if procs > 16 then begin
        Format.printf "execution skipped: %d domains is above 16@." procs;
        true
      end
      else begin
        let st = Multicore.run_plan_stats grid ext plan ~inputs in
        let ok = Dense.equal_approx ~tol:1e-9 reference st.Multicore.result in
        Format.printf
          "execution on %d domains matches reference: %b (%d sliced \
           rotations, per-rank peak %d words)@."
          procs ok st.Multicore.sliced_rotations
          st.Multicore.peak_words_per_proc;
        ok
      end
    in
    let timing = or_die_tce (Simulate.run_plan params ext plan) in
    Format.printf "replayed communication %.4f s vs model %.4f s@."
      timing.Simulate.comm_seconds (Plan.comm_cost plan);
    if not matches then begin
      Format.eprintf "error: the executed output differs from the reference@.";
      exit 1
    end
  in
  Cmd.v
    (Cmd.info "validate"
       ~doc:"Numerically validate the optimized plan for a problem at \
             scaled-down extents, planned under the per-node memory peak \
             of the memory-first plan (the tightest limit any plan meets, \
             so the plan fuses): execution with the plan's fusion on one \
             domain per processor, and the replay. Exits 1 when the \
             output differs from the reference.")
    Term.(const run $ file_arg $ procs_arg $ div_arg)

(* ---------------- trace-check ---------------- *)

let trace_check_cmd =
  let run file =
    match Obs.Trace_check.validate_file file with
    | Ok n -> Format.printf "%s: valid Chrome trace (%d events)@." file n
    | Error msg ->
      Format.eprintf "error: %s: %s@." file msg;
      exit 1
  in
  Cmd.v
    (Cmd.info "trace-check"
       ~doc:"Validate a Chrome trace-event JSON file (as written by \
             $(b,optimize --trace)): well-formed JSON, and every event \
             carries a name, a known ph, and numeric ts/pid/tid fields.")
    Term.(const run $ file_arg)

(* ---------------- tables ---------------- *)

let ccsd_text =
  {|# the paper's section-4 example (a CCSD-like four-tensor term)
extents a=480, b=480, c=480, d=480, e=64, f=64, i=32, j=32, k=32, l=32
T1[b,c,d,f] = sum[e,l] B[b,e,f,l] * D[c,d,e,l]
T2[b,c,j,k] = sum[d,f] T1[b,c,d,f] * C[d,f,j,k]
S[a,b,i,j]  = sum[c,k] T2[b,c,j,k] * A[a,c,i,k]
|}

let tables_cmd =
  let run () =
    let problem = or_die (Parser.parse ccsd_text) in
    let tree =
      or_die
        (Result.bind (Problem.to_sequence problem) (fun seq ->
             Result.map Tree.fuse_mult_sum (Tree.of_sequence seq)))
    in
    List.iter
      (fun (procs, paper_rows, paper_totals, label) ->
        let cfg = square_config procs in
        let plan =
          or_die (Search.optimize cfg problem.Problem.extents tree)
        in
        Format.printf "=== %s (%d processors) ===@.%a@.%s@.@.%a@.@.%a@.@."
          label procs Table.pp (Exptables.plan_table plan)
          (Exptables.totals_line plan) Table.pp
          (Exptables.comparison_table plan paper_rows)
          Table.pp
          (Exptables.totals_comparison plan paper_totals))
      [
        (64, Paperref.table1, Paperref.totals1, "Table 1");
        (16, Paperref.table2, Paperref.totals2, "Table 2");
      ]
  in
  Cmd.v
    (Cmd.info "tables" ~doc:"Reproduce the paper's Tables 1 and 2.")
    Term.(const run $ const ())

let () =
  let info =
    Cmd.info "tce_opt" ~version:"1.0.0"
      ~doc:"Global communication optimization for tensor contraction \
            expressions under memory constraints."
  in
  exit
    (try
       Cmd.eval ~catch:false
         (Cmd.group info
            [
              optimize_cmd; codegen_cmd; opcount_cmd; characterize_cmd;
              validate_cmd; tables_cmd; trace_check_cmd;
            ])
     with Tce_error.Error e ->
       (* Typed failures escaping any subcommand: one line, one
          constructor-specific exit code. *)
       Format.eprintf "error: %s@." (Tce_error.to_string e);
       Tce_error.exit_code e)
