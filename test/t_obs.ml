(* Tests for the observability layer: probe semantics with and without a
   sink, the Chrome trace-event exporter and its validator, the
   deterministic summary, and the end-to-end instrumentation of Search,
   Simulate, Kernel and Multicore. *)

open Tce
open Helpers

(* ---------------- core probe semantics ---------------- *)

let test_disabled_probes_are_noops () =
  Alcotest.(check bool) "disabled at rest" false (Obs.enabled ());
  Alcotest.(check int) "span passes value through" 41
    (Obs.span "idle" (fun () -> 41));
  Obs.count "never";
  Obs.instant "never";
  Obs.span_sim "never" ~t0:0.0 ~t1:1.0;
  (* Nothing above reached any sink; a fresh one starts empty. *)
  let s = Obs.create () in
  Alcotest.(check int) "fresh sink is empty" 0 (List.length (Obs.events s))

let test_with_sink_installs_and_uninstalls () =
  let s = Obs.create () in
  let r =
    Obs.with_sink s (fun () ->
        Alcotest.(check bool) "enabled inside" true (Obs.enabled ());
        17)
  in
  Alcotest.(check int) "result" 17 r;
  Alcotest.(check bool) "disabled after" false (Obs.enabled ());
  (match Obs.with_sink s (fun () -> failwith "boom") with
  | exception Failure _ -> ()
  | _ -> Alcotest.fail "exception swallowed");
  Alcotest.(check bool) "disabled after raise" false (Obs.enabled ())

let test_span_records_wall_event () =
  let s = Obs.create () in
  Obs.with_sink s (fun () ->
      ignore (Obs.span ~cat:"t" ~tid:3 "work" (fun () -> 1) : int));
  match Obs.events s with
  | [ e ] ->
    Alcotest.(check string) "name" "work" e.Obs.name;
    Alcotest.(check int) "pid" Obs.wall_pid e.Obs.pid;
    Alcotest.(check int) "tid" 3 e.Obs.tid;
    Alcotest.(check bool) "ph is span" true (e.Obs.ph = `X);
    Alcotest.(check bool) "nonneg dur" true (e.Obs.dur_us >= 0.0)
  | evs -> Alcotest.failf "expected 1 event, got %d" (List.length evs)

let test_span_recorded_on_raise () =
  let s = Obs.create () in
  (match
     Obs.with_sink s (fun () ->
         Obs.span "failing" (fun () -> failwith "inner"))
   with
  | exception Failure _ -> ()
  | _ -> Alcotest.fail "exception swallowed");
  Alcotest.(check int) "span still recorded" 1 (List.length (Obs.events s))

let test_span_sim_uses_given_clock () =
  let s = Obs.create () in
  Obs.with_sink s (fun () ->
      Obs.span_sim ~cat:"comm" "rotate" ~t0:1.5 ~t1:2.25);
  match Obs.events s with
  | [ e ] ->
    Alcotest.(check int) "sim pid" Obs.sim_pid e.Obs.pid;
    check_float "ts in us" 1.5e6 e.Obs.ts_us;
    check_float "dur in us" 0.75e6 e.Obs.dur_us
  | _ -> Alcotest.fail "expected exactly one event"

let test_counters_aggregate_sorted () =
  let s = Obs.create () in
  Obs.with_sink s (fun () ->
      Obs.count "b";
      Obs.count ~by:10 "a";
      Obs.count ~by:2 "b";
      Obs.count "a");
  Alcotest.(check (list (pair string int)))
    "sorted aggregates"
    [ ("a", 11); ("b", 3) ]
    (Obs.counters s)

let test_sink_limit_drops () =
  let s = Obs.create ~limit:3 () in
  Obs.with_sink s (fun () ->
      for _ = 1 to 10 do
        Obs.instant "tick"
      done);
  Alcotest.(check int) "stored at cap" 3 (List.length (Obs.events s));
  Alcotest.(check int) "overflow counted" 7 (Obs.dropped s);
  match Obs.create ~limit:(-1) () with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "negative limit accepted"

let test_summary_deterministic () =
  let record () =
    let s = Obs.create () in
    Obs.with_sink s (fun () ->
        Obs.span_sim "rotate" ~t0:0.0 ~t1:0.5;
        Obs.span_sim "rotate" ~t0:0.5 ~t1:1.25;
        Obs.span_sim ~tid:1 "compute" ~t0:1.25 ~t1:2.0;
        ignore (Obs.span "wall-work" (fun () -> ()) : unit);
        Obs.count ~by:4 "widgets");
    Obs.summary s
  in
  let a = record () and b = record () in
  Alcotest.(check string) "bit-identical across runs" a b;
  Alcotest.(check bool) "sim totals reported" true
    (Astring_contains.contains a "span sim/0 rotate: count=2 total=1.250000000s");
  Alcotest.(check bool) "counter line" true
    (Astring_contains.contains a "counter widgets = 4");
  (* Wall spans report counts only — durations would be nondeterministic. *)
  Alcotest.(check bool) "wall span counted, not timed" true
    (Astring_contains.contains a "span wall/0 wall-work: count=1\n")

(* ---------------- Chrome exporter + validator ---------------- *)

let test_chrome_json_validates () =
  let s = Obs.create () in
  Obs.with_sink s (fun () ->
      Obs.set_thread_name ~pid:Obs.wall_pid ~tid:0 "rank 0";
      ignore (Obs.span ~args:[ ("k", "v") ] "sp" (fun () -> ()) : unit);
      Obs.span_sim "sim" ~t0:0.0 ~t1:1.0;
      Obs.instant "mark";
      Obs.count "ctr");
  let json = Obs.to_chrome_json s in
  match Obs.Trace_check.validate json with
  (* 3 probe events + 1 counter sample + 3 metadata (thread + 2 process
     names). *)
  | Ok n -> Alcotest.(check int) "event count" 7 n
  | Error m -> Alcotest.failf "exporter emitted invalid trace: %s" m

let test_chrome_json_escaping () =
  let s = Obs.create () in
  Obs.with_sink s (fun () ->
      Obs.instant ~args:[ ("msg", "line1\nline2\t\"quoted\\\"") ]
        "odd \"name\"\n");
  match Obs.Trace_check.validate (Obs.to_chrome_json s) with
  | Ok 3 -> ()
  | Ok n -> Alcotest.failf "expected 3 events, got %d" n
  | Error m -> Alcotest.failf "escaping broke the JSON: %s" m

let test_write_chrome_json_roundtrip () =
  let s = Obs.create () in
  Obs.with_sink s (fun () -> Obs.span_sim "x" ~t0:0.0 ~t1:1.0);
  let path = Filename.temp_file "tce_obs" ".json" in
  (match Obs.write_chrome_json s ~path with
  | Ok () -> ()
  | Error m -> Alcotest.failf "write failed: %s" m);
  let verdict = Obs.Trace_check.validate_file path in
  Sys.remove path;
  match verdict with
  | Ok 3 -> ()
  | Ok n -> Alcotest.failf "expected 3 events, got %d" n
  | Error m -> Alcotest.failf "file invalid: %s" m

(* A recording that exports to fixed bytes: sim-clock spans (wall-clock
   timestamps vary), a reversed span, timestamps on both sides of the
   integer/[%.17g] boundary, counters, thread names, and names and args
   that need escaping. [pinned_trace] pins its export byte for byte:
   field order, escapes, number format and one event per line. *)
let pinned_sink () =
  let s = Obs.create () in
  Obs.with_sink s (fun () ->
      Obs.set_thread_name ~pid:Obs.sim_pid ~tid:1 "rank \"1\"";
      Obs.set_thread_name ~pid:Obs.wall_pid ~tid:0 "main\tloop";
      Obs.span_sim ~cat:"comm" ~tid:1
        ~args:[ ("role", "A\tB"); ("note", "line1\nline2 \\ \"q\" \001\r") ]
        "rotate:T1" ~t0:0.0 ~t1:1.5e-7;
      Obs.span_sim ~cat:"compute" "step:T2" ~t0:0.1 ~t1:2.0;
      Obs.span_sim ~tid:2 "far" ~t0:1e10 ~t1:2.5e10;
      Obs.span_sim "backwards" ~t0:2.0 ~t1:1.0;
      Obs.count ~by:3 "search.nodes";
      Obs.count "odd \"counter\"\n");
  s

let pinned_trace =
  {|{"traceEvents":[{"name":"rotate:T1","cat":"comm","ph":"X","ts":0,"dur":0.14999999999999999,"pid":2,"tid":1,"args":{"role":"A\tB","note":"line1\nline2 \\ \"q\" \u0001\r"}},
{"name":"step:T2","cat":"compute","ph":"X","ts":100000,"dur":1900000,"pid":2,"tid":0},
{"name":"far","ph":"X","ts":10000000000000000,"dur":15000000000000000,"pid":2,"tid":2},
{"name":"backwards","ph":"X","ts":2000000,"dur":0,"pid":2,"tid":0},
{"name":"odd \"counter\"\n","cat":"counter","ph":"C","ts":0,"pid":1,"tid":0,"args":{"value":1}},
{"name":"search.nodes","cat":"counter","ph":"C","ts":0,"pid":1,"tid":0,"args":{"value":3}},
{"name":"thread_name","ph":"M","pid":1,"tid":0,"args":{"name":"main\tloop"}},
{"name":"thread_name","ph":"M","pid":2,"tid":1,"args":{"name":"rank \"1\""}},
{"name":"process_name","ph":"M","pid":1,"tid":0,"args":{"name":"wall clock"}},
{"name":"process_name","ph":"M","pid":2,"tid":0,"args":{"name":"simulated clock"}}]}|}

let test_chrome_json_golden () =
  let json = Obs.to_chrome_json (pinned_sink ()) in
  Alcotest.(check string) "pinned bytes" pinned_trace json;
  match Obs.Trace_check.validate json with
  | Ok n -> Alcotest.(check int) "event count" 10 n
  | Error m -> Alcotest.failf "pinned trace invalid: %s" m

let check_rejected ~ctx json =
  match Obs.Trace_check.validate json with
  | Error _ -> ()
  | Ok _ -> Alcotest.failf "%s: accepted" ctx

let test_trace_check_rejects_malformed () =
  check_rejected ~ctx:"not json" "{nope";
  check_rejected ~ctx:"trailing garbage" "[] []";
  check_rejected ~ctx:"wrong top level" "42";
  check_rejected ~ctx:"no traceEvents" {|{"other": []}|};
  check_rejected ~ctx:"event not object" {|[42]|};
  check_rejected ~ctx:"missing name" {|[{"ph":"I","ts":0,"pid":1,"tid":0}]|};
  check_rejected ~ctx:"unknown ph"
    {|[{"name":"x","ph":"Z","ts":0,"pid":1,"tid":0}]|};
  check_rejected ~ctx:"missing ts"
    {|[{"name":"x","ph":"I","pid":1,"tid":0}]|};
  check_rejected ~ctx:"string pid"
    {|[{"name":"x","ph":"I","ts":0,"pid":"1","tid":0}]|};
  check_rejected ~ctx:"X without dur"
    {|[{"name":"x","ph":"X","ts":0,"pid":1,"tid":0}]|};
  check_rejected ~ctx:"number outside RFC 8259"
    {|[{"name":"x","ph":"I","ts":+1,"pid":1,"tid":0}]|}

(* The checker parses with [Json], so input nested past [Json.max_depth]
   is refused at the limit instead of being descended. *)
let test_trace_check_refuses_deep_nesting () =
  let deep n = String.make n '[' ^ String.make n ']' in
  (match Obs.Trace_check.validate (deep Json.max_depth) with
  | Error m when Astring_contains.contains m "not an object" -> ()
  | Error m -> Alcotest.failf "%d levels: unexpected error %s" Json.max_depth m
  | Ok _ -> Alcotest.failf "%d levels: accepted" Json.max_depth);
  match Obs.Trace_check.validate (String.make 1_000_000 '[') with
  | Error m ->
    Alcotest.(check bool)
      (Printf.sprintf "error names the limit: %s" m)
      true
      (Astring_contains.contains m (string_of_int Json.max_depth))
  | Ok _ -> Alcotest.fail "10^6 open brackets accepted"

let test_trace_check_accepts_both_forms () =
  let ev = {|{"name":"x","ph":"X","ts":0,"dur":1.5,"pid":1,"tid":0}|} in
  (match Obs.Trace_check.validate (Printf.sprintf "[%s,%s]" ev ev) with
  | Ok 2 -> ()
  | Ok n -> Alcotest.failf "bare array: got %d" n
  | Error m -> Alcotest.failf "bare array rejected: %s" m);
  (match
     Obs.Trace_check.validate
       (Printf.sprintf {|{"traceEvents":[%s], "displayTimeUnit":"ms"}|} ev)
   with
  | Ok 1 -> ()
  | Ok n -> Alcotest.failf "object form: got %d" n
  | Error m -> Alcotest.failf "object form rejected: %s" m);
  (* Metadata events carry no ts; instants may use ph "i" or "I". *)
  match
    Obs.Trace_check.validate
      {|[{"name":"process_name","ph":"M","pid":1,"tid":0,"args":{"name":"p"}},
         {"name":"m","ph":"i","ts":3,"pid":1,"tid":0}]|}
  with
  | Ok 2 -> ()
  | Ok n -> Alcotest.failf "metadata form: got %d" n
  | Error m -> Alcotest.failf "metadata rejected: %s" m

(* ---------------- end-to-end instrumentation ---------------- *)

let tiny_plan procs =
  let problem, seq, tree = ccsd ~scale:`Tiny in
  let ext = problem.Problem.extents in
  let grid, cfg = search_config procs in
  let plan = get_ok ~ctx:"plan" (Search.optimize cfg ext tree) in
  (grid, cfg, ext, seq, tree, plan)

let test_search_counters () =
  let problem, _, tree = ccsd ~scale:`Tiny in
  let _, cfg = search_config 4 in
  let s = Obs.create () in
  ignore
    (Obs.with_sink s (fun () ->
         get_ok ~ctx:"plan" (Search.optimize cfg problem.Problem.extents tree))
      : Plan.t);
  let ctr name = Option.value ~default:0 (List.assoc_opt name (Obs.counters s)) in
  (* The CCSD tree has three contraction nodes. *)
  Alcotest.(check int) "nodes" 3 (ctr "search.nodes");
  Alcotest.(check bool) "states generated" true
    (ctr "search.solutions_generated" > 0);
  Alcotest.(check bool) "pruning happened" true
    (ctr "search.solutions_pruned" > 0);
  Alcotest.(check int) "generated = kept + pruned"
    (ctr "search.solutions_generated")
    (ctr "search.solutions_kept" + ctr "search.solutions_pruned");
  Alcotest.(check bool) "solve span present" true
    (List.exists (fun e -> e.Obs.name = "search.solve") (Obs.events s))

let test_simulate_sim_spans () =
  let _, _, ext, _, _, plan = tiny_plan 4 in
  let s = Obs.create () in
  let timing = Obs.with_sink s (fun () -> simulate params ext plan) in
  let evs = Obs.events s in
  let sim_spans =
    List.filter (fun e -> e.Obs.pid = Obs.sim_pid && e.Obs.ph = `X) evs
  in
  let with_prefix p =
    List.filter
      (fun e -> String.length e.Obs.name >= String.length p
                && String.sub e.Obs.name 0 (String.length p) = p)
      sim_spans
  in
  Alcotest.(check bool) "per-round shift spans" true
    (List.length (with_prefix "shift:") > 0);
  Alcotest.(check bool) "per-role rotation spans" true
    (List.length (with_prefix "rotate:") > 0);
  (* One compute and one whole-step span per plan step. *)
  Alcotest.(check int) "compute spans"
    (List.length plan.Plan.steps)
    (List.length (with_prefix "compute:"));
  Alcotest.(check int) "step spans"
    (List.length plan.Plan.steps)
    (List.length (with_prefix "step:"));
  (* Sim spans live on the simulated timeline: all within the replay. *)
  List.iter
    (fun e ->
      Alcotest.(check bool) "span inside replay" true
        (e.Obs.ts_us >= 0.0
        && e.Obs.ts_us +. e.Obs.dur_us
           <= (timing.Simulate.total_seconds *. 1e6) +. 1e-6))
    sim_spans

let test_tracing_does_not_perturb_simulation () =
  let _, _, ext, _, _, plan = tiny_plan 4 in
  let bare = simulate params ext plan in
  let s = Obs.create () in
  let traced = Obs.with_sink s (fun () -> simulate params ext plan) in
  Alcotest.(check bool) "timing bit-identical under tracing" true
    (bare = traced)

let test_kernel_counters () =
  let a = Dense.create [ (i "x", 64); (i "y", 32) ] in
  let b = Dense.create [ (i "y", 32); (i "z", 48) ] in
  let prng = Prng.create ~seed:5 in
  Dense.fill_random a prng;
  Dense.fill_random b prng;
  let s = Obs.create () in
  ignore
    (Obs.with_sink s (fun () ->
         Einsum.contract2 ~out:[ i "x"; i "z" ] a b)
      : Dense.t);
  let ctr name = Option.value ~default:0 (List.assoc_opt name (Obs.counters s)) in
  Alcotest.(check int) "flops counted" (2 * 64 * 32 * 48) (ctr "kernel.flops");
  Alcotest.(check int) "exactly one dispatch" 1
    (ctr "kernel.microkernel" + ctr "kernel.fallback");
  (* This shape takes GEMM; the counter must agree with the path
     probe. *)
  Alcotest.(check int) "microkernel dispatch recorded"
    (if Kernel.last_path () = Kernel.Gemm then 1 else 0)
    (ctr "kernel.microkernel")

let test_multicore_spans_and_bit_identity () =
  let grid, _, ext, seq, _, plan = tiny_plan 4 in
  let inputs = Sequence.random_inputs ext ~seed:42 seq in
  let bare = Multicore.run_plan grid ext plan ~inputs in
  let s = Obs.create () in
  let traced = Obs.with_sink s (fun () -> Multicore.run_plan grid ext plan ~inputs) in
  Alcotest.(check bool) "same values under tracing" true
    (Dense.equal_approx ~tol:0.0 bare traced);
  let evs = Obs.events s in
  let spans name = List.filter (fun e -> e.Obs.name = name) evs in
  let ranks_of name =
    List.sort_uniq compare (List.map (fun e -> e.Obs.tid) (spans name))
  in
  Alcotest.(check (list int)) "multiply spans on every rank" [ 0; 1; 2; 3 ]
    (ranks_of "multiply");
  (* Ranks accumulate into the result in place: there is no gather. *)
  Alcotest.(check (list int)) "no rank gathers" [] (ranks_of "gather");
  Alcotest.(check bool) "recv-wait spans present" true
    (spans "recv-wait" <> []);
  Alcotest.(check bool) "barrier spans present" true (spans "barrier" <> []);
  Alcotest.(check int) "one contraction span per step"
    (List.length plan.Plan.steps)
    (List.length
       (List.filter
          (fun e ->
            String.length e.Obs.name > 12
            && String.sub e.Obs.name 0 12 = "contraction:")
          evs));
  Alcotest.(check bool) "pool jobs counted" true
    (List.assoc_opt "spmd.pool.jobs" (Obs.counters s) <> None);
  (* The whole recording must export as a valid Chrome trace. *)
  match Obs.Trace_check.validate (Obs.to_chrome_json s) with
  | Ok _ -> ()
  | Error m -> Alcotest.failf "invalid combined trace: %s" m

(* ---------------- latency histogram ---------------- *)

let test_hist_percentiles () =
  let h = Obs.Hist.create () in
  (* 1..1000 ms, uniformly *)
  for ms = 1 to 1000 do
    Obs.Hist.add h (float_of_int ms /. 1e3)
  done;
  Alcotest.(check int) "count" 1000 (Obs.Hist.count h);
  check_close ~ctx:"mean" ~rel:1e-9 0.5005 (Obs.Hist.mean h);
  check_close ~ctx:"max" ~rel:1e-9 1.0 (Obs.Hist.max_value h);
  (* Log buckets guarantee ~±12% (one bucket) on any quantile. *)
  let p50 = Obs.Hist.percentile h 50.0 in
  if p50 < 0.40 || p50 > 0.62 then Alcotest.failf "p50 %.4f off" p50;
  let p99 = Obs.Hist.percentile h 99.0 in
  if p99 < 0.85 || p99 > 1.0 then Alcotest.failf "p99 %.4f off" p99;
  if Obs.Hist.percentile h 100.0 > Obs.Hist.max_value h +. 1e-12 then
    Alcotest.fail "p100 above max";
  (* Percentiles are monotone in p. *)
  let prev = ref 0.0 in
  List.iter
    (fun p ->
      let v = Obs.Hist.percentile h p in
      if v < !prev then Alcotest.failf "p%.0f below p-prev" p;
      prev := v)
    [ 1.0; 10.0; 25.0; 50.0; 75.0; 90.0; 99.0; 100.0 ]

let test_hist_edge_cases () =
  let h = Obs.Hist.create () in
  Alcotest.(check int) "empty count" 0 (Obs.Hist.count h);
  check_close ~ctx:"empty p99" ~rel:1e-9 0.0 (Obs.Hist.percentile h 99.0);
  check_close ~ctx:"empty max" ~rel:1e-9 0.0 (Obs.Hist.max_value h);
  (match Obs.Hist.add h Float.nan with
  | exception Invalid_argument _ -> ()
  | () -> Alcotest.fail "NaN accepted");
  (match Obs.Hist.add h (-1.0) with
  | exception Invalid_argument _ -> ()
  | () -> Alcotest.fail "negative accepted");
  (match Obs.Hist.percentile h 101.0 with
  | exception Invalid_argument _ -> ()
  | (_ : float) -> Alcotest.fail "p>100 accepted");
  (* sub-range values clamp into the first/last bucket, no exception *)
  Obs.Hist.add h 0.0;
  Obs.Hist.add h 1e-9;
  Obs.Hist.add h 1e7;
  Alcotest.(check int) "clamped count" 3 (Obs.Hist.count h)

let suite =
  [
    ( "obs.core",
      [
        case "disabled probes are no-ops" test_disabled_probes_are_noops;
        case "with_sink installs and uninstalls"
          test_with_sink_installs_and_uninstalls;
        case "span records a wall event" test_span_records_wall_event;
        case "span recorded when f raises" test_span_recorded_on_raise;
        case "span_sim uses the given clock" test_span_sim_uses_given_clock;
        case "counters aggregate, sorted" test_counters_aggregate_sorted;
        case "sink limit drops overflow" test_sink_limit_drops;
        case "summary is deterministic" test_summary_deterministic;
      ] );
    ( "obs.chrome",
      [
        case "exporter output validates" test_chrome_json_validates;
        case "exporter bytes are pinned" test_chrome_json_golden;
        case "JSON string escaping" test_chrome_json_escaping;
        case "write + validate_file round-trip"
          test_write_chrome_json_roundtrip;
        case "validator rejects malformed traces"
          test_trace_check_rejects_malformed;
        case "validator refuses nesting past Json.max_depth"
          test_trace_check_refuses_deep_nesting;
        case "validator accepts both top-level forms"
          test_trace_check_accepts_both_forms;
      ] );
    ( "obs.hist",
      [
        case "percentiles and bounds" test_hist_percentiles;
        case "rejects bad samples, empty is zero" test_hist_edge_cases;
      ] );
    ( "obs.instrumented",
      [
        case "search counters" test_search_counters;
        case "simulate emits sim-clock spans" test_simulate_sim_spans;
        case "tracing does not perturb the replay"
          test_tracing_does_not_perturb_simulation;
        case "kernel dispatch and flop counters" test_kernel_counters;
        case "multicore per-rank spans, bit-identical output"
          test_multicore_spans_and_bit_identity;
      ] );
  ]
