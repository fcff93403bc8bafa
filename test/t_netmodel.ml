(* Tests for the machine model and the RCost characterization service. *)

open Tce
open Helpers

let test_uniform_alpha_beta () =
  let p =
    Params.uniform ~name:"t" ~latency:0.001 ~bandwidth:1e8 ~flop_rate:1e9
      ~procs_per_node:2 ~mem_per_node_bytes:4e9
  in
  check_close ~ctx:"zero bytes" 0.001 (Params.step_time p ~bytes:0.0);
  check_close ~ctx:"1MB" (0.001 +. 0.01) (Params.step_time p ~bytes:1e6);
  (* The alpha-beta law must hold beyond the two defining knots. *)
  check_close ~ctx:"5GB" (0.001 +. 50.0) (Params.step_time p ~bytes:5e9);
  check_close ~ctx:"rotation" (4.0 *. (0.001 +. 0.01))
    (Params.rotation_time p ~side:4 ~bytes:1e6);
  check_close ~ctx:"compute" 2.0 (Params.compute_time p ~flops:2e9);
  check_close ~ctx:"mem per proc" 2e9 (Params.mem_per_proc_bytes p)

let test_uniform_rejects_bad () =
  match
    Params.uniform ~name:"t" ~latency:(-1.0) ~bandwidth:1e8 ~flop_rate:1e9
      ~procs_per_node:2 ~mem_per_node_bytes:4e9
  with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "negative latency accepted"

(* The fitted Itanium table must reproduce the paper's per-step times at
   its calibration knots (see DESIGN.md section 4). *)
let test_itanium_knots () =
  let p = Params.itanium_2003 in
  List.iter
    (fun (bytes, want) ->
      check_close ~ctx:(Printf.sprintf "%.0f bytes" bytes) want
        (Params.step_time p ~bytes))
    [
      (245_760.0, 0.08125);       (* C slices at 16 procs: 20.8 s / 256 *)
      (491_520.0, 0.10039);       (* B slices at 16 procs: 25.7 s / 256 *)
      (58_982_400.0, 4.4625);     (* D blocks at 64 procs: 35.7 s / 8 *)
      (55_296_000.0, 3.465);      (* fused T1 blocks: ~887 s / 256 *)
    ]

let test_itanium_shape () =
  let p = Params.itanium_2003 in
  Alcotest.(check int) "procs/node" 2 p.Params.procs_per_node;
  check_close ~ctx:"memory" 4.0e9 p.Params.mem_per_node_bytes;
  (* Monotone non-decreasing step time. *)
  let rec check_monotone prev = function
    | [] -> ()
    | bytes :: rest ->
      let t = Params.step_time p ~bytes in
      if t +. 1e-12 < prev then
        Alcotest.failf "step_time decreases at %g bytes" bytes;
      check_monotone t rest
  in
  check_monotone 0.0
    (List.init 60 (fun k -> float_of_int (k + 1) *. 2.5e6))

(* ---------------- Rcost ---------------- *)

let test_characterize_exact_at_samples () =
  let p = Params.itanium_2003 in
  let r = Rcost.of_params p ~side:8 in
  List.iter
    (fun words ->
      check_close ~ctx:(Printf.sprintf "%d words" words)
        (Params.rotation_time p ~side:8
           ~bytes:(Units.bytes_of_words words))
        (Rcost.query r ~axis:1 ~words))
    Rcost.default_samples

let test_characterize_interpolates_knots () =
  (* The default sample set contains the step-table knots, so interpolation
     reproduces the analytic model everywhere, not just at samples. *)
  let p = Params.itanium_2003 in
  let r = Rcost.of_params p ~side:4 in
  List.iter
    (fun words ->
      check_close ~ctx:(Printf.sprintf "%d words" words) ~rel:1e-9
        (Params.rotation_time p ~side:4 ~bytes:(Units.bytes_of_words words))
        (Rcost.query r ~axis:2 ~words))
    [ 1_500; 44_000; 123_456; 2_000_000; 7_000_000; 40_000_000 ]

let test_rcost_zero_words () =
  let r = Rcost.of_params Params.itanium_2003 ~side:4 in
  check_float "free" 0.0 (Rcost.query r ~axis:1 ~words:0)

let test_rcost_bad_queries () =
  let r = Rcost.of_params Params.itanium_2003 ~side:4 in
  (match Rcost.query r ~axis:3 ~words:10 with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "axis 3 accepted");
  match Rcost.query r ~axis:1 ~words:(-1) with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "negative size accepted"

let test_rcost_save_load () =
  let r = Rcost.of_params Params.itanium_2003 ~side:8 in
  let path = Filename.temp_file "tce_test_rcost" ".txt" in
  get_ok ~ctx:"save" (Rcost.save r ~path);
  let r' = get_ok ~ctx:"load" (Rcost.load ~path) in
  Sys.remove path;
  Alcotest.(check int) "rows" (Rcost.rows r) (Rcost.rows r');
  Alcotest.(check int) "cols" (Rcost.cols r) (Rcost.cols r');
  List.iter
    (fun words ->
      check_close ~ctx:"roundtrip query"
        (Rcost.query r ~axis:1 ~words)
        (Rcost.query r' ~axis:1 ~words))
    [ 1_000; 123_456; 7_372_800; 90_000_000 ]

let test_rcost_load_errors () =
  let path = Filename.temp_file "tce_test_rcost" ".txt" in
  Out_channel.with_open_text path (fun oc ->
      output_string oc "not a characterization\n");
  (match Rcost.load ~path with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "garbage accepted");
  Sys.remove path;
  match Rcost.load ~path:"/nonexistent/rcost.txt" with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "missing file accepted"

let test_characterize_validation () =
  (match
     Rcost.characterize ~side:0 ~samples:[ 1 ] ~measure:(fun ~axis:_ ~words:_ -> 1.0)
   with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "side 0 accepted");
  match
    Rcost.characterize ~side:2 ~samples:[] ~measure:(fun ~axis:_ ~words:_ -> 1.0)
  with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "no samples accepted"

let test_characterize_custom_measure () =
  (* Axis-dependent measurements must be kept apart. *)
  let r =
    Rcost.characterize ~side:4 ~samples:[ 100; 200 ]
      ~measure:(fun ~axis ~words ->
        float_of_int words *. if axis = 1 then 1.0 else 2.0)
  in
  check_close ~ctx:"axis1" 150.0 (Rcost.query r ~axis:1 ~words:150);
  check_close ~ctx:"axis2" 300.0 (Rcost.query r ~axis:2 ~words:150)

(* ---------------- Overlap cost law ---------------- *)

let test_overlap_law () =
  (* factor = 1: the paper's additive law, exactly. *)
  check_close ~ctx:"none" 7.0
    (Overlap.step_seconds Overlap.none ~comm:3.0 ~compute:4.0);
  Alcotest.(check bool) "is_none" true (Overlap.is_none Overlap.none);
  (* factor = 0: pay only the longer leg. *)
  check_close ~ctx:"perfect" 4.0
    (Overlap.step_seconds Overlap.perfect ~comm:3.0 ~compute:4.0);
  (* Intermediate factor exposes that fraction of the shorter leg, and
     the law is symmetric in its arguments. *)
  let half = Overlap.make_exn ~factor:0.5 in
  check_close ~ctx:"half" 5.5 (Overlap.step_seconds half ~comm:3.0 ~compute:4.0);
  check_close ~ctx:"symmetric" 5.5
    (Overlap.step_seconds half ~comm:4.0 ~compute:3.0);
  check_close ~ctx:"saved" 1.5 (Overlap.saved_seconds half ~comm:3.0 ~compute:4.0);
  check_close ~ctx:"factor" 0.5 (Overlap.factor half);
  (* Degenerate steps: nothing to hide. *)
  check_close ~ctx:"no comm" 4.0
    (Overlap.step_seconds Overlap.perfect ~comm:0.0 ~compute:4.0)

let test_overlap_validation () =
  (match Overlap.make ~factor:(-0.1) with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "negative factor accepted");
  (match Overlap.make ~factor:1.5 with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "factor above 1 accepted");
  (match Overlap.make_exn ~factor:nan with
  | exception Tce_error.Error _ -> ()
  | _ -> Alcotest.fail "nan factor accepted");
  match Overlap.step_seconds Overlap.none ~comm:(-1.0) ~compute:2.0 with
  | exception Tce_error.Error _ -> ()
  | _ -> Alcotest.fail "negative comm accepted"

let suite =
  [
    ( "netmodel.params",
      [
        case "uniform alpha-beta machine" test_uniform_alpha_beta;
        case "parameter validation" test_uniform_rejects_bad;
        case "itanium table matches the paper" test_itanium_knots;
        case "itanium shape and monotonicity" test_itanium_shape;
      ] );
    ( "netmodel.rcost",
      [
        case "exact at sample sizes" test_characterize_exact_at_samples;
        case "exact between samples (knots included)"
          test_characterize_interpolates_knots;
        case "zero-size queries are free" test_rcost_zero_words;
        case "bad queries rejected" test_rcost_bad_queries;
        case "save/load roundtrip" test_rcost_save_load;
        case "load failure modes" test_rcost_load_errors;
        case "characterize validation" test_characterize_validation;
        case "axis-dependent measurements" test_characterize_custom_measure;
      ] );
    ( "netmodel.overlap",
      [
        case "cost law at the corner and middle factors" test_overlap_law;
        case "validation" test_overlap_validation;
      ] );
  ]
