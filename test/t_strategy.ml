(* Suite for the strategy layer that rides on the work-stealing
   scheduler: seeded-corpus determinism across jobs settings and
   repeats, memo-counter sanity under concurrent solves, greedy-seed
   validity on fuzzed instances, anytime monotone convergence to the
   brute-force optimum, the request rules a sum must meet, and
   nested-fork units for the Parsearch pool. *)

open Tce
open Helpers

let plan_str p = Format.asprintf "%a" Plan.pp p

(* A mid-size generated instance: big enough that the parallel engine
   actually forks subtrees and fans out variant blocks (thousands of
   scheduler tasks), small enough that the 16 solves below stay quick. *)
let instance () = Gencorpus.random_einsum ~seed:3 ~tensors:5 ~rank:5 ~lo:4 ~hi:9

let rec contract_nodes = function
  | Tree.Leaf _ -> 0
  | Tree.Contract (_, _, l, r) -> 1 + contract_nodes l + contract_nodes r
  | Tree.Mult (_, l, r) -> contract_nodes l + contract_nodes r
  | Tree.Sum (_, _, t) -> contract_nodes t

(* The determinism contract on a generated corpus instance: every jobs
   setting, solved repeatedly, prints byte-for-byte the sequential
   engine's plan — scheduling order must never leak into the result. *)
let test_corpus_determinism () =
  let ext, tree = instance () in
  let _, cfg = search_config 16 in
  let baseline =
    plan_str (get_ok ~ctx:"seq" (Search.optimize ~memo:false cfg ext tree))
  in
  List.iter
    (fun jobs ->
      for rep = 1 to 5 do
        let ctx = Printf.sprintf "jobs %d rep %d" jobs rep in
        let plan = get_ok ~ctx (Search.optimize ~jobs cfg ext tree) in
        if not (String.equal baseline (plan_str plan)) then
          Alcotest.failf "%s: plan differs from sequential baseline" ctx
      done)
    [ 1; 2; 4 ]

(* Under a concurrent solve the sharded memo's counters must still add
   up: each contract node performs exactly one lookup, so hits + misses
   equals the node count whatever the interleaving. *)
let test_concurrent_memo_counters () =
  let ext, tree = instance () in
  let _, cfg = search_config 16 in
  let nodes = contract_nodes tree in
  for rep = 1 to 3 do
    let sink = Obs.create () in
    ignore
      (Obs.with_sink sink (fun () ->
           get_ok ~ctx:"jobs4" (Search.optimize ~jobs:4 cfg ext tree))
        : Plan.t);
    let counter k =
      Option.value ~default:0 (List.assoc_opt k (Obs.counters sink))
    in
    let hits = counter "search.memo_hits" in
    let misses = counter "search.memo_misses" in
    if hits + misses <> nodes then
      Alcotest.failf "rep %d: %d hits + %d misses <> %d contract nodes" rep
        hits misses nodes;
    if misses < 1 then Alcotest.failf "rep %d: no memo misses" rep
  done

(* Every greedy seed plan on 50 fuzzed instances passes the independent
   validator and never beats the exact optimum; greedy fails only where
   the exact search fails too (its last widening rung is exact). *)
let test_greedy_valid_on_fuzz () =
  let _, cfg = search_config 16 in
  List.iter
    (fun { Gencorpus.name; ext; tree } ->
      match
        ( plan_tree ~strategy:Search.Greedy cfg ext tree,
          Search.optimize cfg ext tree )
      with
      | Ok g, Ok p ->
        (match
           Plan.validate ?mem_limit_bytes:cfg.Search.mem_limit_bytes
             ~allow_distributed_fusion:cfg.Search.allow_distributed_fusion g
         with
        | Ok () -> ()
        | Error msg -> Alcotest.failf "%s: greedy plan invalid: %s" name msg);
        if Plan.comm_cost g +. 1e-9 < Plan.comm_cost p then
          Alcotest.failf "%s: greedy cost %.6f beats the optimum %.6f" name
            (Plan.comm_cost g) (Plan.comm_cost p)
      | Error _, Error _ -> ()
      | Ok _, Error e ->
        Alcotest.failf "%s: greedy feasible but exact failed: %s" name e
      | Error e, Ok _ ->
        Alcotest.failf "%s: exact feasible but greedy failed: %s" name e)
    (Gencorpus.fuzz ~seed:20260808 ~count:50)

(* Anytime refinement: the per-round best cost never increases, and the
   final plan's cost equals the brute-force optimum (the exact last
   round makes the limit exact, and keeping the best makes it
   monotone). *)
let test_anytime_monotone_converges () =
  let _, cfg = search_config 4 in
  List.iter
    (fun { Gencorpus.name; ext; tree } ->
      match brute_force_tree cfg ext tree with
      | Error _ -> (
        match plan_tree ~strategy:Search.Anytime cfg ext tree with
        | Ok _ ->
          Alcotest.failf "%s: anytime feasible but brute force infeasible"
            name
        | Error _ -> ())
      | Ok oracle ->
        let last = ref infinity in
        let rounds = ref 0 in
        let plan =
          get_ok ~ctx:name
            (plan_tree ~strategy:Search.Anytime
               ~on_round:(fun r ->
                 incr rounds;
                 if r.Search.cost > !last +. 1e-12 then
                   Alcotest.failf "%s: round %d cost %.6f > previous %.6f"
                     name !rounds r.Search.cost !last;
                 last := r.Search.cost)
               cfg ext tree)
        in
        if !rounds < 2 then
          Alcotest.failf "%s: only %d anytime rounds ran" name !rounds;
        check_close ~ctx:name (Plan.comm_cost oracle) (Plan.comm_cost plan))
    (Gencorpus.fuzz ~seed:7 ~count:12)

(* A sum takes only the full fusion space and the communication
   objective: Search.check turns the other two baselines away before any
   search, for the planner under every strategy and for the oracle. *)
let test_sum_baselines_rejected () =
  let problem =
    Result.get_ok
      (Parser.parse
         "extents a=8, b=8, c=8, d=8\n\
          M[a,b] = sum[c] P[a,c] * Q[c,b]\n\
          E[a,d] = sum[b] M[a,b] * R[b,d] + 0.5 * sum[b] M[a,b] * U[b,d]\n")
  in
  let ext = problem.Problem.extents in
  let se =
    match Result.get_ok (Opmin.optimize_to_computation problem) with
    | Opmin.Summed se -> se
    | Opmin.Single _ -> Alcotest.fail "expected a multi-term sum"
  in
  List.iter
    (fun (mode, name) ->
      let fusion_mode, objective = Baselines.of_mode mode in
      let _, cfg = search_config ~fusion_mode 4 in
      let req strategy =
        Search.request ~strategy ~objective (Search.Grid cfg) (Search.Sum se)
      in
      let accepted = mode = `All in
      List.iter
        (fun (strategy, sname) ->
          Alcotest.(check bool)
            (Printf.sprintf "%s sum, %s plans" name sname)
            accepted
            (Result.is_ok (Search.plan ext (req strategy))))
        [
          (Search.Exact, "exact"); (Search.Greedy, "greedy");
          (Search.Anytime, "anytime");
        ];
      if not accepted then
        Alcotest.(check bool)
          (name ^ " sum, oracle refuses")
          false
          (Result.is_ok (Search.brute_force ext (req Search.Exact))))
    [ (`All, "all"); (`None, "none"); (`Memmin, "memmin") ]

(* Nested fan-out: a task may call map_array / both on its own pool; the
   joining worker helps run the region instead of deadlocking. *)
let test_parsearch_nested_forks () =
  Parsearch.with_pool ~jobs:3 @@ fun pool ->
  let outer =
    Parsearch.map_array pool
      (fun i ->
        let inner =
          Parsearch.map_array pool
            (fun j -> (10 * i) + j)
            [| 0; 1; 2; 3 |]
        in
        Array.fold_left ( + ) 0 inner)
      (Array.init 8 Fun.id)
  in
  Alcotest.(check (array int))
    "nested sums"
    (Array.init 8 (fun i -> (40 * i) + 6))
    outer;
  let a, b = Parsearch.both pool (fun () -> 1) (fun () -> 2) in
  Alcotest.(check (pair int int)) "both returns the pair" (1, 2) (a, b);
  (match Parsearch.both pool (fun () -> failwith "left boom") (fun () -> 2) with
  | exception Failure msg ->
    Alcotest.(check string) "first fork's exception wins" "left boom" msg
  | _ -> Alcotest.fail "expected the left exception");
  (* the pool survives the exception *)
  let r = Parsearch.map_array pool (fun x -> x * x) [| 1; 2; 3 |] in
  Alcotest.(check (array int)) "pool usable after exception" [| 1; 4; 9 |] r

(* The scheduler's Obs counters: one task per map_array element. *)
let test_parsearch_counters () =
  let sink = Obs.create () in
  Obs.with_sink sink (fun () ->
      Parsearch.with_pool ~jobs:2 (fun pool ->
          ignore
            (Parsearch.map_array pool succ (Array.init 64 Fun.id)
              : int array)));
  let counter k =
    Option.value ~default:0 (List.assoc_opt k (Obs.counters sink))
  in
  let tasks = counter "parsearch.tasks" in
  let steals = counter "parsearch.steals" in
  if tasks <> 64 then Alcotest.failf "expected 64 tasks, counted %d" tasks;
  if steals < 0 || steals > tasks then
    Alcotest.failf "implausible steal count %d for %d tasks" steals tasks

let suite =
  [
    ( "strategy.determinism",
      [
        case "corpus instance byte-identical at jobs 1/2/4, 5 repeats"
          test_corpus_determinism;
        case "memo counters consistent under concurrency"
          test_concurrent_memo_counters;
      ] );
    ( "strategy.greedy",
      [ case "greedy valid and never optimal-beating on 50 fuzzed instances"
          test_greedy_valid_on_fuzz ] );
    ( "strategy.anytime",
      [ case "monotone rounds converge to the brute-force optimum"
          test_anytime_monotone_converges ] );
    ( "strategy.request",
      [ case "a sum refuses the fusion-free and memory-first baselines"
          test_sum_baselines_rejected ] );
    ( "strategy.parsearch",
      [
        case "nested forks help instead of deadlocking"
          test_parsearch_nested_forks;
        case "task and steal counters" test_parsearch_counters;
      ] );
  ]
