(* Fuzz/property suite for the search engine's scaling machinery: the
   memo cache and the beam cut are each checked against the brute-force
   optimality oracle on seeded random instances, every returned plan is
   certified by [Plan.validate], and solves run side by side on several
   domains print the plan of a lone solve. *)

open Tce
open Helpers

(* ---------- seeded random instance generator ---------- *)

(* An instance is a problem text over 3–5 index names with randomized
   extents, plus a memory limit. Four shapes: a single contraction, the
   two-contraction tree from t_search, a three-matrix chain, and a
   repeated subexpression (T1 and T3 share their right-hand side) that
   exercises the memo cache's α-renaming on a hit. *)
let gen_instance rng =
  let e name lo hi = (name, lo + Prng.int rng ~bound:(hi - lo + 1)) in
  let fmt bindings tmpl =
    Printf.sprintf tmpl
      (String.concat ", "
         (List.map (fun (n, v) -> Printf.sprintf "%s=%d" n v) bindings))
  in
  match Prng.int rng ~bound:4 with
  | 0 ->
    fmt
      [ e "a" 4 12; e "b" 4 12; e "k" 2 10 ]
      {|
extents %s
S[a,b] = sum[k] X[a,k] * Y[k,b]
|}
  | 1 ->
    fmt
      [ e "a" 4 10; e "b" 4 10; e "c" 2 8; e "d" 2 8; e "k" 2 8 ]
      {|
extents %s
T[a,b,c] = sum[k] X[a,k,c] * Y[k,b]
S[a,d]   = sum[b,c] T[a,b,c] * Z[b,c,d]
|}
  | 2 ->
    fmt
      [ e "a" 4 12; e "b" 4 12; e "c" 4 12; e "d" 4 12 ]
      {|
extents %s
T1[a,c] = sum[b] M1[a,b] * M2[b,c]
S[a,d]  = sum[c] T1[a,c] * M3[c,d]
|}
  | _ ->
    fmt
      [ e "a" 3 8; e "b" 3 8; e "c" 3 8; e "k" 3 8 ]
      {|
extents %s
T1[a,b] = sum[k] X[a,k] * Y[k,b]
T2[a,c] = sum[b] T1[a,b] * W[b,c]
T3[a,b] = sum[k] X[a,k] * Y[k,b]
S[c,b]  = sum[a] T2[a,c] * T3[a,b]
|}

let load text =
  let problem = get_ok ~ctx:"parse" (Parser.parse text) in
  let seq = get_ok ~ctx:"seq" (Problem.to_sequence problem) in
  let tree = get_ok ~ctx:"tree" (Tree.of_sequence seq) in
  (problem.Problem.extents, tree)

let certify ~ctx ~(cfg : Search.config) plan =
  match
    Plan.validate ?mem_limit_bytes:cfg.Search.mem_limit_bytes
      ~allow_distributed_fusion:cfg.Search.allow_distributed_fusion plan
  with
  | Ok () -> ()
  | Error msg -> Alcotest.failf "%s: plan fails validation: %s" ctx msg

(* Property: on every random instance, each engine configuration —
   cache-free and memoized — returns a plan with exactly the brute-force
   optimum cost, and that plan passes the independent validator.
   Infeasibility must also agree with the oracle. This is the soundness
   certificate for the memo cache's α-renaming. *)
let test_engines_match_brute_force () =
  let rng = Prng.create ~seed:20260806 in
  for trial = 1 to 52 do
    let text = gen_instance rng in
    let ext, tree = load text in
    let limit =
      (* Between severely constrained and unconstrained, with an occasional
         unlimited case to cover that path too. *)
      if Prng.int rng ~bound:5 = 0 then None
      else Some (Prng.float_range rng ~lo:5_000.0 ~hi:400_000.0)
    in
    let _, cfg = search_config ?mem_limit_bytes:limit 4 in
    let ctx kind = Printf.sprintf "trial %d (%s)" trial kind in
    let engines =
      [
        ("seq", fun () -> Search.optimize ~memo:false cfg ext tree);
        ("memo", fun () -> Search.optimize cfg ext tree);
      ]
    in
    match brute_force_tree cfg ext tree with
    | Error _ ->
      List.iter
        (fun (kind, run) ->
          match run () with
          | Error _ -> ()
          | Ok p ->
            Alcotest.failf "%s: feasible (%.6f) but oracle infeasible"
              (ctx kind) (Plan.comm_cost p))
        engines
    | Ok oracle ->
      let best = Plan.comm_cost oracle in
      List.iter
        (fun (kind, run) ->
          match run () with
          | Error msg ->
            Alcotest.failf "%s: infeasible (%s) but oracle found %.6f"
              (ctx kind) msg best
          | Ok p ->
            if Float.abs (Plan.comm_cost p -. best) > 1e-9 then
              Alcotest.failf "%s: cost %.6f vs oracle %.6f" (ctx kind)
                (Plan.comm_cost p) best;
            certify ~ctx:(ctx kind) ~cfg p)
        engines
  done

(* Does some step fuse a loop whose index its array's distribution
   splits — the plans only [allow_distributed_fusion] admits? *)
let fuses_distributed (p : Plan.t) =
  List.exists
    (fun (s : Plan.step) ->
      List.exists
        (fun (role, fused) ->
          Index.Set.exists
            (Dist.distributes (Variant.dist_of s.Plan.variant role))
            fused)
        [
          (Variant.Out, s.Plan.fusion_out);
          (Variant.Left, s.Plan.fusion_left);
          (Variant.Right, s.Plan.fusion_right);
        ])
    p.Plan.steps

(* Unpruned enumeration with distributed fused loops allowed grows to
   gigabytes on three contractions over rank-4 arrays; the oracle runs
   only on instances below that size. *)
let brute_force_sized tree =
  let nodes = Tree.internal_nodes tree in
  let rank a = List.length (Aref.indices a) in
  List.length nodes <= 2
  || List.for_all
       (fun a -> rank a <= 3)
       (List.map Tree.aref nodes @ Tree.leaves tree)

(* Property: with distributed fused loops allowed (the cost model's
   N/√P LoopRange branch, which no front end turns on), the search
   returns exactly the brute-force optimum, under no limit and under a
   limit that forces fusion; the plan passes the validator in that mode
   and never costs more than the default search, whose space it
   contains. The oracle shares the search's legality rules, so the
   memory-first plan — which fuses as much as those rules allow — is
   certified by the independent validator too. Some instances must
   actually fuse a distributed index, so the branch's legality rule is
   exercised, not just tolerated. *)
let test_distributed_fusion_matches_brute_force () =
  let distributed = ref 0 in
  List.iter
    (fun { Gencorpus.name; ext; tree } ->
      let _, default = search_config 4 in
      let limits =
        match Search.optimize default ext tree with
        | Ok p -> [ None; Some (0.5 *. Plan.mem_per_node_bytes p) ]
        | Error _ -> [ None ]
      in
      List.iter
        (fun limit ->
          let _, default = search_config ?mem_limit_bytes:limit 4 in
          let cfg = { default with Search.allow_distributed_fusion = true } in
          let ctx =
            Printf.sprintf "%s (limit %s)" name
              (Option.fold ~none:"none" ~some:(Printf.sprintf "%.0f") limit)
          in
          match (Search.optimize cfg ext tree, brute_force_tree cfg ext tree) with
          | Error _, Error _ -> ()
          | Ok p, Error msg ->
            Alcotest.failf "%s: feasible (%.6f) but oracle infeasible: %s" ctx
              (Plan.comm_cost p) msg
          | Error msg, Ok _ ->
            Alcotest.failf "%s: infeasible (%s) but oracle feasible" ctx msg
          | Ok p, Ok oracle ->
            if Float.abs (Plan.comm_cost p -. Plan.comm_cost oracle) > 1e-9 then
              Alcotest.failf "%s: cost %.6f vs oracle %.6f" ctx
                (Plan.comm_cost p) (Plan.comm_cost oracle);
            certify ~ctx ~cfg p;
            certify ~ctx:(ctx ^ " memory-first") ~cfg
              (get_ok ~ctx
                 (plan_tree ~objective:Search.Mem_first cfg ext tree));
            if fuses_distributed p then incr distributed;
            Result.iter
              (fun d ->
                if Plan.comm_cost p > Plan.comm_cost d +. 1e-9 then
                  Alcotest.failf "%s: cost %.6f above the default's %.6f" ctx
                    (Plan.comm_cost p) (Plan.comm_cost d))
              (Search.optimize default ext tree))
        limits)
    (List.filter
       (fun (x : Gencorpus.instance) -> brute_force_sized x.Gencorpus.tree)
       (Gencorpus.fuzz ~seed:20261017 ~count:16));
  Alcotest.(check bool) "some plan fuses a distributed index" true
    (!distributed > 0)

(* ---------- determinism regressions ---------- *)

let plan_str p = Format.asprintf "%a" Plan.pp p

(* A repeated subexpression: T3 recomputes T1, so the memo cache hits. *)
let cse_text =
  {|
extents a=8, b=8, c=8, k=8
T1[a,b] = sum[k] X[a,k] * Y[k,b]
T2[a,c] = sum[b] T1[a,b] * W[b,c]
T3[a,b] = sum[k] X[a,k] * Y[k,b]
S[c,b]  = sum[a] T2[a,c] * T3[a,b]
|}

(* The daemon runs one sequential search per worker domain, side by
   side, and requests share no search state: the CSE problem (memo hits
   + α-renaming in play) and the CCSD term, each solved on two of four
   domains at once, must print byte-for-byte the plan of a lone solve,
   on two rounds. *)
let test_concurrent_solves_deterministic () =
  let problems =
    [
      ("cse", load cse_text);
      ( "ccsd-tiny",
        let problem, _, tree = ccsd ~scale:`Tiny in
        (problem.Problem.extents, tree) );
    ]
  in
  let _, cfg = search_config 4 in
  let solve (name, (ext, tree)) () =
    ( name,
      plan_str (get_ok ~ctx:(name ^ " optimize") (Search.optimize cfg ext tree))
    )
  in
  let alone = List.map (fun p -> solve p ()) problems in
  for round = 1 to 2 do
    List.iteri
      (fun d (name, plan) ->
        Alcotest.(check string)
          (Printf.sprintf "%s: round %d, domain %d matches a lone solve" name
             round d)
          (List.assoc name alone) plan)
      (on_domains (List.map solve (problems @ problems)))
  done

(* The memo cache must be invisible in the result, not just in the cost. *)
let test_memo_identical_plans () =
  let ext, tree = load cse_text in
  let _, cfg = search_config 4 in
  let s ~memo =
    plan_str (get_ok ~ctx:"optimize" (Search.optimize ~memo cfg ext tree))
  in
  Alcotest.(check string) "memo on == memo off" (s ~memo:false) (s ~memo:true)

(* The memo cache actually hits on the repeated subexpression, and the
   counters surface through Obs. *)
let test_memo_counters () =
  let ext, tree = load cse_text in
  let _, cfg = search_config 4 in
  let sink = Obs.create () in
  let _plan =
    Obs.with_sink sink (fun () ->
        get_ok ~ctx:"optimize" (Search.optimize cfg ext tree))
  in
  let counters = Obs.counters sink in
  let count name =
    match List.assoc_opt name counters with Some n -> n | None -> 0
  in
  Alcotest.(check int) "one hit (T3 reuses T1's subtree)" 1
    (count "search.memo_hits");
  Alcotest.(check int) "three misses (T1, T2, S)" 3
    (count "search.memo_misses")

(* ---------- beam ---------- *)

(* A beam of width k explores a per-node superset of width k-1, so on
   these seeded instances cost is monotonically non-increasing in k and a
   wide-enough beam recovers the unrestricted optimum. (Not a theorem —
   beam search is inexact by design — but a regression guard on the
   documented total order.) *)
let test_beam_monotone () =
  let problem, _, tree = ccsd ~scale:`Tiny in
  let ext = problem.Problem.extents in
  let _, cfg = search_config 4 in
  let cost ?beam () =
    Plan.comm_cost (get_ok ~ctx:"beam" (Search.optimize ?beam cfg ext tree))
  in
  let unrestricted = cost () in
  let widths = [ 1; 2; 4; 8; 16 ] in
  let costs = List.map (fun k -> cost ~beam:k ()) widths in
  List.iteri
    (fun i c ->
      if i > 0 then
        let prev = List.nth costs (i - 1) in
        if c > prev +. 1e-9 then
          Alcotest.failf "beam %d cost %.6f worse than beam %d cost %.6f"
            (List.nth widths i) c
            (List.nth widths (i - 1))
            prev)
    costs;
  check_close ~ctx:"wide beam = unrestricted" ~rel:1e-9 unrestricted
    (List.nth costs (List.length costs - 1));
  let (_ : string) =
    get_error ~ctx:"beam 0 rejected" (Search.optimize ~beam:0 cfg ext tree)
  in
  ()

(* ---------- topology-aware shape search vs its oracle ---------- *)

(* Property: on random instances and random node widths, the shape
   search ([Search.plan] on a [Shapes] request) returns exactly the
   brute-force-over-factorizations optimum and the plan certifies under
   [Plan.validate] / [Plan.validate_sum]. Covers uniform and node-aware
   topologies, square and non-square processor counts, single trees and
   seeded tiny sums. *)
let test_topology_matches_brute_force () =
  let rng = Prng.create ~seed:20260808 in
  let random_machine () =
    Params.uniform ~name:"fuzz-node" ~latency:1e-5 ~bandwidth:1e9
      ~flop_rate:1e9
      ~procs_per_node:(List.nth [ 1; 2; 4 ] (Prng.int rng ~bound:3))
      ~mem_per_node_bytes:4e9
  in
  let random_topo machine =
    if Prng.int rng ~bound:2 = 0 then Topology.uniform machine
    else
      Topology.node_aware machine ~intra_latency:1e-8
        ~intra_bandwidth:(Prng.float_range rng ~lo:1e9 ~hi:1e11)
  in
  let cost = function
    | Search.Tree_plan p -> Plan.comm_cost p
    | Search.Sum_plan s -> s.Plan.sum_comm_cost
  in
  let grid = function
    | Search.Tree_plan p -> p.Plan.grid
    | Search.Sum_plan s -> s.Plan.sum_grid
  in
  let check ~ctx ~ext ~machine ~topo ~procs problem =
    let config_of grid =
      Search.default_config ~grid ~params:machine
        ~rcost:(Rcost.of_topology topo grid) ()
    in
    let base = config_of (Grid.create_rect_exn ~rows:1 ~cols:procs) in
    let req = Search.request (Search.Shapes { topo; procs; base }) problem in
    match (Search.plan ext req, Search.brute_force ext req) with
    | Error _, Error _ -> ()
    | Ok p, Error _ ->
      Alcotest.failf "%s: feasible (%.6f) but oracle infeasible"
        (ctx "dp vs oracle") (cost p)
    | Error msg, Ok oracle ->
      Alcotest.failf "%s: infeasible (%s) but oracle found %.6f"
        (ctx "dp vs oracle") msg (cost oracle)
    | Ok p, Ok oracle ->
      if Float.abs (cost p -. cost oracle) > 1e-9 then
        Alcotest.failf "%s: cost %.6f vs oracle %.6f" (ctx "dp vs oracle")
          (cost p) (cost oracle);
      Alcotest.(check (pair int int))
        (ctx "oracle shape agrees")
        (Grid.rows (grid oracle), Grid.cols (grid oracle))
        (Grid.rows (grid p), Grid.cols (grid p));
      let cfg = config_of (grid p) in
      match p with
      | Search.Tree_plan p -> certify ~ctx:(ctx "validate") ~cfg p
      | Search.Sum_plan s -> (
        match
          Plan.validate_sum ?mem_limit_bytes:cfg.Search.mem_limit_bytes ~ext s
        with
        | Ok () -> ()
        | Error msg ->
          Alcotest.failf "%s: sum plan fails validation: %s" (ctx "validate")
            msg)
  in
  for trial = 1 to 24 do
    let text = gen_instance rng in
    let ext, tree = load text in
    let procs = List.nth [ 4; 6; 8; 9; 12 ] (Prng.int rng ~bound:5) in
    let machine = random_machine () in
    let topo = random_topo machine in
    check
      ~ctx:(fun kind -> Printf.sprintf "topo trial %d (%s)" trial kind)
      ~ext ~machine ~topo ~procs (Search.Tree tree)
  done;
  (* Seeded tiny sums: the whole sum searches shapes, alternating 4 and
     8 processors (all seven R x C shapes between them). *)
  List.iteri
    (fun k { Gencorpus.sname; sext; sum } ->
      let procs = if k mod 2 = 0 then 4 else 8 in
      let machine = random_machine () in
      let topo = random_topo machine in
      check
        ~ctx:(fun kind ->
          Printf.sprintf "topo sum %s at %d procs (%s)" sname procs kind)
        ~ext:sext ~machine ~topo ~procs (Search.Sum sum))
    (Gencorpus.sum_fuzz ~seed:20260808 ~count:8)

(* ---------- Plan.validate as an independent checker ---------- *)

let test_validate_rejects_corrupt_plans () =
  let problem, _, tree = ccsd ~scale:`Small in
  let ext = problem.Problem.extents in
  let _, cfg = search_config 16 in
  let plan = get_ok ~ctx:"optimize" (Search.optimize cfg ext tree) in
  certify ~ctx:"genuine plan" ~cfg plan;
  (* A consumer moved ahead of its producer. *)
  let reversed = { plan with Plan.steps = List.rev plan.Plan.steps } in
  let (_ : string) =
    get_error ~ctx:"reversed steps" (Plan.validate reversed)
  in
  (* An impossible memory budget. *)
  let (_ : string) =
    get_error ~ctx:"tiny memory limit"
      (Plan.validate ~mem_limit_bytes:1.0 plan)
  in
  (* An empty plan. *)
  let empty = { plan with Plan.steps = []; presums = [] } in
  let (_ : string) = get_error ~ctx:"no steps" (Plan.validate empty) in
  ()

(* ---------- multi-term sums: oracle and certification ---------- *)

let certify_sum ~ctx ~(cfg : Search.config) ~ext sp =
  match
    Plan.validate_sum ?mem_limit_bytes:cfg.Search.mem_limit_bytes ~ext sp
  with
  | Ok () -> ()
  | Error msg -> Alcotest.failf "%s: sum plan fails validation: %s" ctx msg

(* Property: on every seeded random sum — terms, extents, permuted
   repeats and sharing family all drawn by the generator, including
   instances with no shareable subtree at all — the fast sum optimizer
   returns exactly the brute-force optimum over all sharing selections ×
   per-term contraction trees and the plan is certified by the
   independent sum validator. Infeasibility must also agree with the
   oracle. *)
let test_sum_optimizer_matches_brute_force () =
  let instances = Gencorpus.sum_fuzz ~seed:20260808 ~count:40 in
  List.iter
    (fun { Gencorpus.sname; sext; sum } ->
      let _, cfg = search_config 4 in
      let ctx = Printf.sprintf "sum instance %s" sname in
      match
        Result.map Search.sum_plan
          (Search.brute_force sext
             (Search.request (Search.Grid cfg) (Search.Sum sum)))
      with
      | Error _ -> (
        match Search.optimize_sum cfg sext sum with
        | Error _ -> ()
        | Ok sp ->
          Alcotest.failf "%s: feasible (%.6f) but oracle infeasible" ctx
            sp.Plan.sum_comm_cost)
      | Ok oracle -> (
        match Search.optimize_sum cfg sext sum with
        | Error msg ->
          Alcotest.failf "%s: infeasible (%s) but oracle found %.6f" ctx msg
            oracle.Plan.sum_comm_cost
        | Ok sp ->
          if
            Float.abs (sp.Plan.sum_comm_cost -. oracle.Plan.sum_comm_cost)
            > 1e-9
          then
            Alcotest.failf "%s: cost %.6f vs oracle %.6f" ctx
              sp.Plan.sum_comm_cost oracle.Plan.sum_comm_cost;
          certify_sum ~ctx ~cfg ~ext:sext sp))
    instances

(* The acceptance bar from the issue: on the corpus instances with
   planted shared subtrees (including the permuted repeat), the sum
   optimizer's total communication is strictly below planning every term
   independently, because the shared intermediate is paid for once. *)
let test_sum_planted_sharing_beats_independent () =
  List.iter
    (fun { Gencorpus.sname; sext; sum } ->
      let _, cfg = search_config 16 in
      let sp =
        get_ok ~ctx:(sname ^ " shared") (Search.optimize_sum cfg sext sum)
      in
      let indep =
        get_ok
          ~ctx:(sname ^ " independent")
          (Search.optimize_sum ~max_groups:0 cfg sext sum)
      in
      if sp.Plan.shared = [] then
        Alcotest.failf "%s: no shared intermediate selected" sname;
      if not (sp.Plan.sum_comm_cost < indep.Plan.sum_comm_cost) then
        Alcotest.failf "%s: shared %.6f not strictly below independent %.6f"
          sname sp.Plan.sum_comm_cost indep.Plan.sum_comm_cost;
      certify_sum ~ctx:sname ~cfg ~ext:sext sp;
      certify_sum ~ctx:(sname ^ " independent") ~cfg ~ext:sext indep)
    (Gencorpus.sum_bench_corpus ())

(* Plan.validate_sum as an independent checker: it recomputes the
   book-keeping totals and re-validates every sub-plan with its pinned
   shared leaves, so tampering with any part of the sum plan is caught. *)
let test_validate_sum_rejects_corrupt () =
  let { Gencorpus.sname = _; sext; sum } =
    List.hd (Gencorpus.sum_bench_corpus ())
  in
  let _, cfg = search_config 16 in
  let sp = get_ok ~ctx:"optimize_sum" (Search.optimize_sum cfg sext sum) in
  certify_sum ~ctx:"genuine sum plan" ~cfg ~ext:sext sp;
  Alcotest.(check bool) "sharing selected" true (sp.Plan.shared <> []);
  (* Shared producers dropped while the totals still claim amortization. *)
  let (_ : string) =
    get_error ~ctx:"dropped shared list"
      (Plan.validate_sum ~ext:sext { sp with Plan.shared = [] })
  in
  (* No terms at all. *)
  let (_ : string) =
    get_error ~ctx:"no terms"
      (Plan.validate_sum ~ext:sext { sp with Plan.terms = [] })
  in
  (* A zeroed coefficient. *)
  let (_ : string) =
    get_error ~ctx:"zero coefficient"
      (Plan.validate_sum ~ext:sext
         {
           sp with
           Plan.terms = List.map (fun (_, p) -> (0.0, p)) sp.Plan.terms;
         })
  in
  (* An impossible memory budget across the whole sum. *)
  let (_ : string) =
    get_error ~ctx:"tiny memory limit"
      (Plan.validate_sum ~mem_limit_bytes:1.0 ~ext:sext sp)
  in
  ()

(* Single-term problems are untouched by the sum machinery: the
   computation router classifies them as [Single] and the resulting plan
   is byte-identical to the direct tree pipeline. *)
let test_single_term_routes_identically () =
  List.iter
    (fun text ->
      let problem = get_ok ~ctx:"parse" (Parser.parse text) in
      let direct =
        get_ok ~ctx:"optimize_to_tree" (Opmin.optimize_to_tree problem)
      in
      let routed =
        match
          get_ok ~ctx:"optimize_to_computation"
            (Opmin.optimize_to_computation problem)
        with
        | Opmin.Single tree -> tree
        | Opmin.Summed _ -> Alcotest.fail "single term classified as a sum"
      in
      let _, cfg = search_config 4 in
      let ext = problem.Problem.extents in
      Alcotest.(check string) "plan byte-identical"
        (plan_str (get_ok ~ctx:"direct" (Search.optimize cfg ext direct)))
        (plan_str (get_ok ~ctx:"routed" (Search.optimize cfg ext routed))))
    [
      ccsd_text ~scale:`Tiny;
      "extents a=8, b=8, c=8\nC[a,c] = sum[b] A[a,b] * B[b,c]\n";
    ]

(* A two-term sum sharing M = P·Q, so the sum planner has a real
   cross-term CSE to find. *)
let sum_text =
  "extents a=8, b=8, c=8, d=8\n\
   M[a,b] = sum[c] P[a,c] * Q[c,b]\n\
   E[a,d] = sum[b] M[a,b] * R[b,d] + 0.5 * sum[b] M[a,b] * U[b,d]\n"

(* Concurrent solves on the other request axes: a node-aware shape
   search (8 ranks, 4 per node) of the CCSD term and of the shared sum,
   each solved twice at once alongside the other on four domains, must
   print byte-for-byte the plan of a lone solve. *)
let test_concurrent_shape_and_sum_requests () =
  let shape =
    get_ok ~ctx:"machine" (Search.machine ~topology:`Node ~procs:8 ~nodes:2 ())
  in
  let request text =
    let problem = get_ok ~ctx:"parse" (Parser.parse text) in
    let ext = problem.Problem.extents in
    match get_ok ~ctx:"opmin" (Opmin.optimize_to_computation problem) with
    | Opmin.Single tree -> (ext, Search.request shape (Search.Tree tree))
    | Opmin.Summed se -> (ext, Search.request shape (Search.Sum se))
  in
  let requests =
    [
      ("ccsd-tiny", request (ccsd_text ~scale:`Tiny));
      ("sum", request sum_text);
    ]
  in
  let solve (name, (ext, req)) () =
    match get_ok ~ctx:(name ^ " plan") (Search.plan ext req) with
    | Search.Tree_plan p -> (name, plan_str p)
    | Search.Sum_plan s ->
      (name ^ " (sum)", Format.asprintf "%a" (Plan.pp_sum ext) s)
  in
  let alone = List.map (fun r -> solve r ()) requests in
  Alcotest.(check (list string)) "one tree plan, one sum plan"
    [ "ccsd-tiny"; "sum (sum)" ] (List.map fst alone);
  List.iteri
    (fun d (name, plan) ->
      Alcotest.(check string)
        (Printf.sprintf "%s: domain %d matches a lone solve" name d)
        (List.assoc name alone) plan)
    (on_domains (List.concat_map (fun r -> [ solve r; solve r ]) requests))

(* ---------- untrusted problem texts ---------- *)

(* One-byte mutants of the CCSD, CSE and sum texts go through the whole
   offline path: parse, operation minimization, the search at P = 4 and
   the validator. Every stage may refuse a mutant with an error, but none
   may raise, and every plan that comes out must validate. 3,000 seeded
   mutants take about a second; some must get as far as a plan. *)
let test_problem_mutants_never_raise () =
  let _, cfg = search_config 4 in
  let planned = ref 0 in
  let plans text =
    match Parser.parse text with
    | Error _ -> true
    | Ok problem -> (
      let ext = problem.Problem.extents in
      match Opmin.optimize_to_computation problem with
      | Error _ -> true
      | Ok computation -> (
        let problem =
          match computation with
          | Opmin.Single tree -> Search.Tree tree
          | Opmin.Summed se -> Search.Sum se
        in
        match Search.plan ext (Search.request (Search.Grid cfg) problem) with
        | Error _ -> true
        | Ok outcome ->
          incr planned;
          Result.is_ok
            (match outcome with
            | Search.Tree_plan p -> Plan.validate p
            | Search.Sum_plan s -> Plan.validate_sum ~ext s)))
  in
  check_mutants ~seed:20261017 ~count:3000 ~name:"problem mutants"
    [ ccsd_text ~scale:`Tiny; cse_text; sum_text ]
    plans;
  Alcotest.(check bool)
    (Printf.sprintf "some mutants planned (%d)" !planned)
    true (!planned > 0)

let suite =
  [
    ( "searchprop.oracle",
      [
        case "all engines match brute force on random instances"
          test_engines_match_brute_force;
        case "distributed fusion matches brute force and never costs more"
          test_distributed_fusion_matches_brute_force;
      ] );
    ( "searchprop.determinism",
      [
        case "four concurrent solves byte-identical to a lone solve, twice"
          test_concurrent_solves_deterministic;
        case "memo cache invisible in the plan" test_memo_identical_plans;
        case "memo hit/miss counters" test_memo_counters;
        case "beam cost monotone in width" test_beam_monotone;
      ] );
    ( "searchprop.topology",
      [
        case "shape search matches factorization brute force"
          test_topology_matches_brute_force;
      ] );
    ( "searchprop.validate",
      [ case "validator rejects corrupted plans" test_validate_rejects_corrupt_plans ] );
    ( "searchprop.sum",
      [
        case "sum optimizer matches sum brute force"
          test_sum_optimizer_matches_brute_force;
        case "planted sharing strictly beats independent terms"
          test_sum_planted_sharing_beats_independent;
        case "sum validator rejects corrupted sum plans"
          test_validate_sum_rejects_corrupt;
        case "single-term problems route identically"
          test_single_term_routes_identically;
        case "concurrent shape and sum solves byte-identical to lone ones"
          test_concurrent_shape_and_sum_requests;
      ] );
    ( "searchprop.robustness",
      [
        case "one-byte problem mutants plan or fail typed, never raise"
          test_problem_mutants_never_raise;
      ] );
  ]
