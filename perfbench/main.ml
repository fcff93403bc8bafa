(* The benchmark's entry point.

     main.exe --workload <plan-corpus|exec-ccsd|serve-mix> --seed <n>
              --seconds <s> --trace <0|1>

   Probes the host once, sets the workload up several times (reporting
   the median set-up time), then runs its operations for [--seconds].
   With [--trace 0] every operation is untraced and the end-to-end metrics are printed; with
   [--trace 1] the first third of the time runs untraced, the rest under
   an Obs sink, and the per-layer metrics are printed. The last line of
   standard output is one JSON object:
   {"correct", "attempted", "failed", "metrics": {name: {value, unit}}}.
   See perfbench/README.md for what each workload and metric means. *)

open Harness

let workloads = [ Plan_corpus.workload; Exec_ccsd.workload; Serve_mix.workload ]

(* Set-ups per run: at least [min_setups], more while they total under
   [min_setup_s], so a set-up of a few milliseconds still gets a median
   over many samples. *)
let min_setups = 5
let min_setup_s = 1.
let max_setups = 200

(* Per-layer metrics and their units, in output order. A workload that
   does not exercise a layer reports 0 for it. *)
let per_layer =
  [
    ("trace.overhead", "ratio");
    ("op.ms_p90", "ms");
    ("host.cores", "count");
    ("host.gflops_1d", "GFLOP/s");
    ("host.scaling_2d", "ratio");
    ("host.cpu_per_wall", "ratio");
    ("host.oversubscribed", "bool");
    ("search.optimize_s", "s");
    ("search.nodes", "count");
    ("search.solutions_generated", "count");
    ("search.solutions_kept", "count");
    ("search.kept_ratio", "ratio");
    ("search.memo_hits", "count");
    ("search.memo_misses", "count");
    ("plan.assemble_ms", "ms");
    ("plan.validate_us", "us");
    ("plan.paper_ms", "ms");
    ("comm_model_s", "s");
    ("parser.parse_us", "us");
    ("opmin.optimize_us", "us");
    ("proto.parse_us", "us");
    ("server.cache_key_us", "us");
    ("server.overhead_ms", "ms");
    ("server.cache_hit_ratio", "ratio");
    ("server.cache_evictions", "count");
    ("server.degraded", "count");
    ("server.rejected", "count");
    ("server.simulate_ms_p50", "ms");
    ("serve.hit_ms_p50", "ms");
    ("serve.cold_ms_p50", "ms");
    ("kernel.multiply_ms", "ms");
    ("kernel.flops", "count");
    ("kernel.gflops", "GFLOP/s");
    ("kernel.peak_fraction", "ratio");
    ("spmd.send_ms", "ms");
    ("spmd.recv_wait_ms", "ms");
    ("spmd.sends", "count");
    ("spmd.recvs", "count");
    ("spmd.barrier_ms", "ms");
    ("spmd.pool_dispatch_ms", "ms");
    ("multicore.gather_ms", "ms");
    ("multicore.block_ms", "ms");
    ("model.step1.compute_ratio", "ratio");
    ("model.step1.comm_ratio", "ratio");
    ("model.step2.compute_ratio", "ratio");
    ("model.step2.comm_ratio", "ratio");
    ("model.step3.compute_ratio", "ratio");
    ("model.step3.comm_ratio", "ratio");
  ]

let usage () =
  prerr_endline
    "usage: main.exe --workload <plan-corpus|exec-ccsd|serve-mix> --seed N \
     --seconds S --trace 0|1";
  exit 2

let parse_args () =
  let workload = ref None and seed = ref None and seconds = ref None
  and trace = ref None in
  let rec go = function
    | [] -> ()
    | "--workload" :: w :: rest ->
      workload := List.find_opt (fun (wl : workload) -> wl.name = w) workloads;
      if !workload = None then usage ();
      go rest
    | "--seed" :: n :: rest ->
      seed := int_of_string_opt n;
      go rest
    | "--seconds" :: s :: rest ->
      seconds := float_of_string_opt s;
      go rest
    | "--trace" :: t :: rest ->
      trace := (match t with "0" -> Some false | "1" -> Some true | _ -> None);
      go rest
    | _ -> usage ()
  in
  go (List.tl (Array.to_list Sys.argv));
  match (!workload, !seed, !seconds, !trace) with
  | Some w, Some seed, Some seconds, Some trace when seconds > 0. ->
    (w, seed, seconds, trace)
  | _ -> usage ()

(* Run untraced operations for [seconds] (at least one). *)
let run_for ~seconds (inst : instance) =
  let t0 = Unix.gettimeofday () in
  let log = ref [] in
  while !log = [] || Unix.gettimeofday () -. t0 < seconds do
    log := inst.run_op () :: !log
  done;
  List.rev !log

let json_metric (name, value, unit) =
  Printf.sprintf "%S: {\"value\": %.17g, \"unit\": %S}" name value unit

let () =
  let (wl : workload), seed, seconds, trace = parse_args () in
  Format.printf "workload %s, seed %d, %.0f s, trace %b@." wl.name seed seconds
    trace;
  (* The host probe runs once, untimed: it measures the machine, not the
     workload's set-up. *)
  let host = Host.probe () in
  (* Set up [min_setups] times, and more while they total under
     [min_setup_s], timing only the workload's own set-up; keep the last
     instance. *)
  let setup_times, inst =
    let rec go k total acc =
      let dt, inst = timed (fun () -> wl.setup ~seed ~host) in
      let total = total +. dt in
      if k >= min_setups && (total >= min_setup_s || k >= max_setups) then
        (dt :: acc, inst)
      else begin
        inst.teardown ();
        go (k + 1) total (dt :: acc)
      end
    in
    go 1 0. []
  in
  let setup_s = Benchkit.Stats.median setup_times in
  (* The host probe and the workloads run at most two domains. *)
  let domains = 2 in
  let oversubscribed = domains > host.Host.cores in
  Format.printf "%a; %d domains%s@." Host.pp host domains
    (if oversubscribed then " (OVERSUBSCRIBED)" else "");
  Format.printf "set-up %.6f s (median of %d)@." setup_s (List.length setup_times);
  for _ = 1 to wl.warmup_ops do
    ignore (inst.run_op () : op)
  done;
  (* CPU seconds the process got per wall second while measuring: it
     drops when other programs on the host take this run's cores. *)
  let cpu () =
    let t = Unix.times () in
    t.Unix.tms_utime +. t.Unix.tms_stime
  in
  let cpu0 = cpu () and wall0 = Unix.gettimeofday () in
  let untraced = run_for ~seconds:(if trace then seconds /. 3. else seconds) inst in
  let cpu_per_wall = (cpu () -. cpu0) /. (Unix.gettimeofday () -. wall0) in
  Format.printf "host cpu: %.3f CPU s per wall s while measuring@." cpu_per_wall;
  let traced =
    if trace then Some (trace_ops ~seconds:(2. *. seconds /. 3.) inst) else None
  in
  let all = untraced @ Option.fold ~none:[] ~some:(fun t -> t.op_log) traced in
  let attempted = List.length all in
  let failed = List.length (List.filter (fun o -> not o.ok) all) in
  let times = List.map (fun o -> o.seconds) untraced in
  let n = List.length times in
  let p50 = Benchkit.Stats.median times in
  let p90 = Benchkit.Stats.percentile times 90. in
  let ops_per_s = float_of_int n /. List.fold_left ( +. ) 0. times in
  Format.printf "%d operations untraced: p50 %.3f ms, p90 %.3f ms%s@." n
    (1e3 *. p50) (1e3 *. p90)
    (match Benchkit.Stats.tail_percentile ~n with
    | Some p ->
      Printf.sprintf ", p%g %.3f ms (%d samples beyond)" p
        (1e3 *. Benchkit.Stats.percentile times p)
        (Benchkit.Stats.beyond ~n p)
    | None -> ", too few samples for a tail with 10 beyond it");
  (* Per kind of operation, where a workload mixes several. *)
  List.iter
    (fun kind ->
      let ts = List.filter_map (fun o -> if o.kind = kind then Some o.seconds else None) untraced in
      Format.printf "  %-10s %5d ops  p50 %10.3f ms  p90 %10.3f ms  max %10.3f ms@." kind
        (List.length ts)
        (1e3 *. Benchkit.Stats.median ts)
        (1e3 *. Benchkit.Stats.percentile ts 90.)
        (1e3 *. Benchkit.Stats.percentile ts 100.))
    (List.sort_uniq compare (List.map (fun o -> o.kind) untraced));
  Format.printf "error rate %d/%d@." failed attempted;
  let metrics =
    match traced with
    | None ->
      [
        ("setup_s", setup_s, "s");
        ("op_ms_p50", 1e3 *. p50, "ms");
        ("ops_per_s", ops_per_s, "1/s");
      ]
    | Some tr ->
      let traced_p50 = Benchkit.Stats.median (List.map (fun o -> o.seconds) tr.op_log) in
      let own = inst.layers tr in
      let common =
        [
          ("trace.overhead", traced_p50 /. p50);
          (* Untraced, like [op_ms_p50]; reported here, without a bound,
             because a tail on a small shared host moves with whatever
             else the host runs. *)
          ("op.ms_p90", 1e3 *. p90);
          ("host.cores", float_of_int host.Host.cores);
          ("host.gflops_1d", host.Host.gflops_1d);
          ("host.scaling_2d", host.Host.scaling_2d);
          ("host.cpu_per_wall", cpu_per_wall);
          ("host.oversubscribed", if oversubscribed then 1. else 0.);
        ]
      in
      List.map
        (fun (name, unit) ->
          let v =
            match List.assoc_opt name (common @ own) with Some v -> v | None -> 0.
          in
          (name, v, unit))
        per_layer
  in
  List.iter (fun (name, v, unit) -> Format.printf "  %-28s %14.6g %s@." name v unit) metrics;
  inst.teardown ();
  Printf.printf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n%!"
    (failed = 0) attempted failed
    (String.concat ", " (List.map json_metric metrics))
