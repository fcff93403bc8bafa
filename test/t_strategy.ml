(* Suite for the strategy layer of the sequential search: seeded-corpus
   determinism across repeats, memo-counter sanity under concurrent
   solves, greedy-seed validity on fuzzed instances, anytime monotone
   convergence to the brute-force optimum, and the request rules a sum
   must meet. *)

open Tce
open Helpers

let plan_str p = Format.asprintf "%a" Plan.pp p

(* A mid-size generated instance, small enough that the solves below
   stay quick. *)
let instance () = Gencorpus.random_einsum ~seed:3 ~tensors:5 ~rank:5 ~lo:4 ~hi:9

let rec contract_nodes = function
  | Tree.Leaf _ -> 0
  | Tree.Contract (_, _, l, r) -> 1 + contract_nodes l + contract_nodes r
  | Tree.Mult (_, l, r) -> contract_nodes l + contract_nodes r
  | Tree.Sum (_, _, t) -> contract_nodes t

(* The determinism contract on a generated corpus instance: the memoized
   search, solved repeatedly, prints byte-for-byte the memo-free walk's
   plan — neither the memo nor any state left by an earlier solve may
   leak into the result. *)
let test_corpus_determinism () =
  let ext, tree = instance () in
  let _, cfg = search_config 16 in
  let baseline =
    plan_str (get_ok ~ctx:"walk" (Search.optimize ~memo:false cfg ext tree))
  in
  for rep = 1 to 5 do
    let ctx = Printf.sprintf "rep %d" rep in
    let plan = get_ok ~ctx (Search.optimize cfg ext tree) in
    if not (String.equal baseline (plan_str plan)) then
      Alcotest.failf "%s: plan differs from the memo-free walk" ctx
  done

(* The daemon's worker domains share the one installed Obs sink, and
   each solve owns its memo. A lone solve performs exactly one lookup
   per contract node; four solves at once on four domains must add up
   to exactly four lone solves' hits and misses, whatever the
   interleaving — no solve may hit another's memo or lose a count. *)
let test_concurrent_memo_counters () =
  let ext, tree = instance () in
  let _, cfg = search_config 16 in
  let nodes = contract_nodes tree in
  let counts solves =
    let sink = Obs.create () in
    Obs.with_sink sink (fun () ->
        ignore
          (on_domains
             (List.init solves (fun d () ->
                  get_ok
                    ~ctx:(Printf.sprintf "solve %d" d)
                    (Search.optimize cfg ext tree)))
            : Plan.t list));
    let counter k =
      Option.value ~default:0 (List.assoc_opt k (Obs.counters sink))
    in
    (counter "search.memo_hits", counter "search.memo_misses")
  in
  let hits, misses = counts 1 in
  if hits + misses <> nodes then
    Alcotest.failf "lone solve: %d hits + %d misses <> %d contract nodes"
      hits misses nodes;
  if misses < 1 then Alcotest.fail "lone solve: no memo misses";
  for rep = 1 to 3 do
    Alcotest.(check (pair int int))
      (Printf.sprintf "rep %d: four concurrent solves count four lone ones"
         rep)
      (4 * hits, 4 * misses)
      (counts 4)
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

let suite =
  [
    ( "strategy.determinism",
      [
        case "corpus instance byte-identical to the memo-free walk, 5 repeats"
          test_corpus_determinism;
        case "memo counters consistent under concurrent solves"
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
  ]
