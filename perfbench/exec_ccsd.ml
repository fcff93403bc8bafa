(* exec-ccsd: real parallel execution of one plan. CCSD at validation
   scale (a–d = 32, e, f = 16, i–l = 12; 465 MFLOP in 3 steps), planned
   once at set-up on a 1 × 2 grid. One operation is one
   [Multicore.run_plan] on a persistent 2-rank [Spmd.Pool], differenced
   against [Sequence.eval] at 1e-9. Kernel multiply, mailbox shift and
   gather do all the work; search, parser and server do none. The seed
   draws the input tensors. *)

open Tce
open Harness

let ccsd_validation =
  {|extents a=32, b=32, c=32, d=32, e=16, f=16, i=12, j=12, k=12, l=12
T1[b,c,d,f] = sum[e,l] B[b,e,f,l] * D[c,d,e,l]
T2[b,c,j,k] = sum[d,f] T1[b,c,d,f] * C[d,f,j,k]
S[a,b,i,j]  = sum[c,k] T2[b,c,j,k] * A[a,c,i,k]
|}

let params = Params.itanium_2003

let get_ok what = function
  | Ok x -> x
  | Error e -> failwith (what ^ ": " ^ e)

(* Per step of the plan, the measured per-rank multiply and send +
   recv-wait time inside its [contraction:<out>] span, averaged over the
   traced operations. *)
let measured_steps tr (plan : Plan.t) ~procs =
  let open Benchkit.Spans in
  let work = List.filter (fun s -> List.mem s.name [ "multiply"; "send"; "recv-wait" ]) tr.spans in
  List.map
    (fun (step : Plan.step) ->
      let name = "contraction:" ^ Aref.name step.contraction.Contraction.out in
      let windows = List.filter (fun s -> s.name = name) tr.spans in
      let compute = ref 0. and comm = ref 0. in
      List.iter
        (fun w ->
          List.iter
            (fun s ->
              if s.t0 >= w.t0 && s.t0 <= w.t1 then
                if s.name = "multiply" then compute := !compute +. (s.t1 -. s.t0)
                else comm := !comm +. (s.t1 -. s.t0))
            work)
        windows;
      let per_rank x =
        x /. 1e6 /. float_of_int (max 1 (List.length windows)) /. float_of_int procs
      in
      (step, per_rank !compute, per_rank !comm))
    plan.steps

let setup ~seed ~(host : Host.t) =
  let problem = get_ok "parse" (Parser.parse ccsd_validation) in
  let seq = get_ok "sequence" (Problem.to_sequence problem) in
  let tree =
    match get_ok "opmin" (Opmin.optimize_to_computation problem) with
    | Opmin.Single tree -> tree
    | Opmin.Summed _ -> failwith "exec-ccsd: unexpected sum"
  in
  let ext = problem.Problem.extents in
  let grid = Grid.create_rect_exn ~rows:1 ~cols:2 in
  let cfg =
    Search.default_config ~grid ~params
      ~rcost:(Rcost.of_topology (Topology.uniform params) grid)
      ()
  in
  let plan = get_ok "search" (Search.optimize cfg ext tree) in
  get_ok "validate" (Plan.validate plan);
  let inputs = Sequence.random_inputs ext ~seed seq in
  let reference = Sequence.eval ext ~inputs seq in
  let pool = Spmd.Pool.create ~procs:(Grid.procs grid) in
  let contraction_spans =
    List.map
      (fun (step : Plan.step) ->
        "contraction:" ^ Aref.name step.contraction.Contraction.out)
      plan.steps
  in
  let run_op () =
    let seconds, out =
      timed (fun () ->
          span "multicore.run_plan" (fun () ->
              Multicore.run_plan ~pool grid ext plan ~inputs))
    in
    { seconds; ok = Dense.equal_approx ~tol:1e-9 reference out; kind = "exec" }
  in
  let layers tr =
    let procs = Grid.procs grid in
    let flops = per_op tr (counter tr "kernel.flops") in
    let multiply_ms = self_ms_per_op tr [ "multiply" ] in
    (* Rate per domain while multiplying: flops over the summed per-rank
       multiply time. *)
    let gflops = if multiply_ms = 0. then 0. else flops /. (multiply_ms *. 1e6) in
    let steps = measured_steps tr plan ~procs in
    Format.printf "model vs measured per step (per rank, Itanium model):@.";
    List.iter
      (fun ((step : Plan.step), compute, comm) ->
        Format.printf
          "  %-3s compute model %.6f s measured %.6f s; comm model %.6f s \
           measured %.6f s@."
          (Aref.name step.contraction.Contraction.out)
          (Plan.step_compute_seconds plan step)
          compute (Plan.step_comm_seconds step) comm)
      steps;
    let ratio measured model = if model = 0. then 0. else measured /. model in
    [
      ("kernel.multiply_ms", multiply_ms);
      ("kernel.flops", flops);
      ("kernel.gflops", gflops);
      ("kernel.peak_fraction", gflops /. host.Host.gflops_1d);
      ("spmd.send_ms", self_ms_per_op tr [ "send" ]);
      ("spmd.recv_wait_ms", self_ms_per_op tr [ "recv-wait" ]);
      ("spmd.sends", per_op tr (counter tr "spmd.sends"));
      ("spmd.recvs", per_op tr (counter tr "spmd.recvs"));
      ("spmd.barrier_ms", self_ms_per_op tr [ "barrier" ]);
      (* Rank 0's time in each contraction outside its own share of the
         team program: posting it and waiting for the other rank. *)
      ("spmd.pool_dispatch_ms", self_ms_per_op tr contraction_spans);
      ("multicore.gather_ms", self_ms_per_op tr [ "gather" ]);
      (* Inside the team program but outside multiply, shift and gather:
         block slicing and buffer set-up. *)
      ("multicore.block_ms", self_ms_per_op tr [ "pool.job" ]);
      ("comm_model_s", Plan.comm_cost plan);
    ]
    @ List.concat
        (List.mapi
           (fun k ((step : Plan.step), compute, comm) ->
             [
               ( Printf.sprintf "model.step%d.compute_ratio" (k + 1),
                 ratio compute (Plan.step_compute_seconds plan step) );
               ( Printf.sprintf "model.step%d.comm_ratio" (k + 1),
                 ratio comm (Plan.step_comm_seconds step) );
             ])
           steps)
  in
  { run_op; layers; teardown = (fun () -> Spmd.Pool.close pool) }

let workload = { name = "exec-ccsd"; warmup_ops = 2; setup }
