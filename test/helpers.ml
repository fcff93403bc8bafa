(* Shared fixtures and small conveniences for the test suites. *)

open Tce

let i = Index.v

let idx_list names = List.map Index.v names

let aref name names = Aref.v name (idx_list names)

let extents bindings =
  Extents.of_list_exn (List.map (fun (n, e) -> (Index.v n, e)) bindings)

(* The paper's CCSD-like four-tensor term at several scales. *)
let ccsd_text ~scale =
  let a, ef, ijkl =
    match scale with
    | `Paper -> (480, 64, 32)
    | `Small -> (12, 8, 6)
    | `Tiny -> (6, 4, 4)
  in
  Printf.sprintf
    {|
extents a=%d, b=%d, c=%d, d=%d, e=%d, f=%d, i=%d, j=%d, k=%d, l=%d
T1[b,c,d,f] = sum[e,l] B[b,e,f,l] * D[c,d,e,l]
T2[b,c,j,k] = sum[d,f] T1[b,c,d,f] * C[d,f,j,k]
S[a,b,i,j]  = sum[c,k] T2[b,c,j,k] * A[a,c,i,k]
|}
    a a a a ef ef ijkl ijkl ijkl ijkl

let ccsd ~scale =
  let problem = Result.get_ok (Parser.parse (ccsd_text ~scale)) in
  let seq = Result.get_ok (Problem.to_sequence problem) in
  let tree = Tree.fuse_mult_sum (Result.get_ok (Tree.of_sequence seq)) in
  (problem, seq, tree)

let params = Params.itanium_2003

let search_config ?mem_limit_bytes ?fusion_mode procs =
  let grid = Grid.create_exn ~procs in
  let rcost = Rcost.of_params params ~side:(Grid.side grid) in
  ( grid,
    Search.default_config ?mem_limit_bytes ?fusion_mode ~grid ~params ~rcost
      () )

(* Single-tree requests on one grid, for the suites that compare the
   strategies, baselines and oracle of the one search. *)
let plan_tree ?strategy ?objective ?on_round cfg ext tree =
  Result.map Search.tree_plan
    (Search.plan ?on_round ext
       (Search.request ?strategy ?objective (Search.Grid cfg)
          (Search.Tree tree)))

let brute_force_tree cfg ext tree =
  Result.map Search.tree_plan
    (Search.brute_force ext
       (Search.request (Search.Grid cfg) (Search.Tree tree)))

(* A paper baseline: a (fusion mode, objective) setting of the search. *)
let baseline mode cfg ext tree =
  let fusion_mode, objective = Baselines.of_mode mode in
  plan_tree ~objective { cfg with Search.fusion_mode } ext tree

let get_ok ~ctx = function
  | Ok v -> v
  | Error msg -> Alcotest.failf "%s: unexpected error: %s" ctx msg

(* Replay a plan on the healthy simulated cluster, failing the test on any
   typed error. *)
let simulate ?faults params ext plan =
  get_ok ~ctx:"simulate"
    (Tce_error.to_string_result (Simulate.run_plan ?faults params ext plan))

let get_error ~ctx = function
  | Ok _ -> Alcotest.failf "%s: expected an error" ctx
  | Error msg -> msg

let check_float = Alcotest.(check (float 1e-9))

let check_close ~ctx ?(rel = 1e-6) expected actual =
  let scale = Float.max 1.0 (Float.abs expected) in
  if Float.abs (expected -. actual) > rel *. scale then
    Alcotest.failf "%s: expected %g, got %g" ctx expected actual

let qtest ?(count = 100) name gen prop =
  QCheck_alcotest.to_alcotest ~speed_level:`Quick
    (QCheck2.Test.make ~count ~name gen prop)

(* Check [prop] on [count] seeded one-byte mutants of [texts]: one byte
   replaced, inserted or deleted. Half the new bytes come from the
   texts' own alphabet, so many mutants still parse and reach the later
   stages. *)
let check_mutants ~seed ~count ~name texts prop =
  let mutant =
    let open QCheck2.Gen in
    let alphabet = List.of_seq (String.to_seq (String.concat "" texts)) in
    let* text = oneofl texts in
    let n = String.length text in
    let* pos = int_bound (n - 1) in
    let* byte = oneof [ map Char.chr (int_bound 255); oneofl alphabet ] in
    let+ op = int_bound 2 in
    match op with
    | 0 -> String.mapi (fun i c -> if i = pos then byte else c) text
    | 1 ->
      String.sub text 0 pos ^ String.make 1 byte
      ^ String.sub text pos (n - pos)
    | _ -> String.sub text 0 pos ^ String.sub text (pos + 1) (n - pos - 1)
  in
  QCheck2.Test.check_exn
    ~rand:(Random.State.make [| seed |])
    (QCheck2.Test.make ~count ~name ~print:(Printf.sprintf "%S") mutant prop)

(* Run [fs] side by side, one domain each, as the planning daemon runs
   its workers' searches, and return their results in order. Every
   domain is joined before the first exception is re-raised. *)
let on_domains fs =
  List.map
    (fun f -> Domain.spawn (fun () -> try Ok (f ()) with e -> Error e))
    fs
  |> List.map Domain.join
  |> List.map (function Ok v -> v | Error e -> raise e)

let case name f = Alcotest.test_case name `Quick f
