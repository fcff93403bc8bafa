(* plan-corpus: the offline planning path (`tce_opt optimize` at default
   settings: jobs = 1, memo on) over a mixed corpus. One operation is one
   pass over the whole corpus:

   - CCSD at paper scale on 16 and 64 processors (Tables 2 and 1), parsed
     from text: parse → opmin → Search.optimize → Plan.validate;
   - the repeated-subexpression problem the memo cache exists for;
   - Gencorpus's seconds-scale einsum-7t-r7 tree;
   - a Gencorpus.fuzz batch and a planted-sharing sum, both drawn from the
     workload seed, plus Gencorpus.sum_bench_corpus, the sums through
     Search.optimize_sum.

   The seed varies only the small instances: the seconds-scale one sets
   most of a pass's time, and its search work moves a lot with its
   extents, so it stays fixed to keep a pass's work the same across
   seeds.

   Search does nearly all the work; the kernel, SPMD and serve layers do
   none. Every plan must validate and be byte-identical across passes. *)

open Tce
open Harness

let ccsd_paper =
  {|extents a=480, b=480, c=480, d=480, e=64, f=64, i=32, j=32, k=32, l=32
T1[b,c,d,f] = sum[e,l] B[b,e,f,l] * D[c,d,e,l]
T2[b,c,j,k] = sum[d,f] T1[b,c,d,f] * C[d,f,j,k]
S[a,b,i,j]  = sum[c,k] T2[b,c,j,k] * A[a,c,i,k]
|}

let cse_text =
  {|extents a=64, b=64, c=64, k=64
T1[a,b] = sum[k] X[a,k] * Y[k,b]
T2[a,c] = sum[b] T1[a,b] * W[b,c]
T3[a,b] = sum[k] X[a,k] * Y[k,b]
S[c,b] = sum[a] T2[a,c] * T3[a,b]
|}

type item =
  | Text of { name : string; text : string; procs : int }
  | Tree of Gencorpus.instance
  | Sum of Gencorpus.sum_instance

let params = Params.itanium_2003

let config procs =
  let grid = Grid.create_exn ~procs in
  Search.default_config ~grid ~params
    ~rcost:(Rcost.of_params params ~side:(Grid.side grid))
    ()

let corpus ~seed =
  [
    Text { name = "ccsd-paper-p16"; text = ccsd_paper; procs = 16 };
    Text { name = "ccsd-paper-p64"; text = ccsd_paper; procs = 64 };
    Text { name = "cse"; text = cse_text; procs = 16 };
    Tree
      (List.find
         (fun (i : Gencorpus.instance) -> i.name = "einsum-7t-r7")
         (Gencorpus.bench_corpus ()));
  ]
  @ List.map (fun i -> Tree i) (Gencorpus.fuzz ~seed ~count:24)
  @ [
      (let sext, sum = Gencorpus.random_sum ~seed ~terms:3 ~lo:24 ~hi:48 () in
       Sum { Gencorpus.sname = "sum-3t-seeded"; sext; sum });
    ]
  @ List.map (fun s -> Sum s) (Gencorpus.sum_bench_corpus ())

let plan_str p = Format.asprintf "%a" Plan.pp p

(* Plan one item; [Ok (rendered plan, comm cost)] once it validates. *)
let plan_item cfgs item =
  let ( let* ) = Result.bind in
  let tree_plan cfg ext tree =
    let* plan = span "search.optimize" (fun () -> Search.optimize cfg ext tree) in
    let* () = span "plan.validate" (fun () -> Plan.validate plan) in
    Ok (plan_str plan, Plan.comm_cost plan)
  in
  match item with
  | Text { text; procs; _ } -> (
    let cfg = cfgs procs in
    let* problem = span "parser.parse" (fun () -> Parser.parse text) in
    let* comp =
      span "opmin.optimize" (fun () -> Opmin.optimize_to_computation problem)
    in
    match comp with
    | Opmin.Single tree -> tree_plan cfg problem.Problem.extents tree
    | Opmin.Summed _ -> Error "unexpected sum")
  | Tree { ext; tree; _ } -> tree_plan (cfgs 16) ext tree
  | Sum { sext; sum; _ } ->
    let* plan =
      span "search.optimize_sum" (fun () ->
          Search.optimize_sum (cfgs 16) sext sum)
    in
    let* () =
      span "plan.validate" (fun () -> Plan.validate_sum ~ext:sext plan)
    in
    Ok (Format.asprintf "%a" (Plan.pp_sum sext) plan, plan.Plan.sum_comm_cost)

let item_name = function
  | Text { name; _ } -> name
  | Tree { Gencorpus.name; _ } -> name
  | Sum { Gencorpus.sname; _ } -> sname

let setup ~seed ~host:_ =
  let cfgs =
    let tbl = List.map (fun p -> (p, config p)) [ 16; 64 ] in
    fun p -> List.assoc p tbl
  in
  let items = corpus ~seed in
  (* First pass's plans: every later pass must reproduce them exactly. *)
  let first = ref None in
  let comm_model = ref 0. in
  (* Untraced per-pass time of the two paper-scale CCSD plans. *)
  let paper_s = ref [] in
  let run_op () =
    let seconds, timed_results =
      timed (fun () -> List.map (fun i -> timed (fun () -> plan_item cfgs i)) items)
    in
    let results = List.map snd timed_results in
    if not (Obs.enabled ()) then
      paper_s :=
        List.fold_left2
          (fun acc item (s, _) ->
            match item with
            | Text { name = "ccsd-paper-p16" | "ccsd-paper-p64"; _ } -> acc +. s
            | _ -> acc)
          0. items timed_results
        :: !paper_s;
    let ok =
      List.for_all2
        (fun item r ->
          match r with
          | Ok _ -> true
          | Error e ->
            Format.printf "plan-corpus: %s failed: %s@." (item_name item) e;
            false)
        items results
      &&
      match !first with
      | None ->
        first := Some results;
        comm_model :=
          List.fold_left
            (fun acc r -> match r with Ok (_, c) -> acc +. c | Error _ -> acc)
            0. results;
        true
      | Some prev -> prev = results
    in
    { seconds; ok; kind = "pass" }
  in
  let layers tr =
    (* The sum optimizer runs its DP without a library span, so the
       whole of its bench span counts as search. *)
    search_layers tr ~dp:[ "search.solve"; "search.optimize_sum" ]
    @ [
        ("plan.assemble_ms", self_ms_per_op tr [ "search.optimize" ]);
        ("plan.validate_us", mean_self_us tr [ "plan.validate" ]);
        ("parser.parse_us", mean_self_us tr [ "parser.parse" ]);
        ("opmin.optimize_us", mean_self_us tr [ "opmin.optimize" ]);
        ("plan.paper_ms", 1e3 *. Benchkit.Stats.median !paper_s);
        ("comm_model_s", !comm_model);
      ]
  in
  { run_op; layers; teardown = ignore }

(* One untimed pass first: it records the reference plans, and the
   timed passes all start from a warm heap. *)
let workload = { name = "plan-corpus"; warmup_ops = 1; setup }
