(* Tests for the SPMD layer and the multicore Cannon executor. *)

open Tce
open Helpers

let test_spmd_barrier_counts () =
  (* Each participant bumps a local phase; barriers keep phases aligned. *)
  let phases = Array.make 4 0 in
  let (_ : unit array) =
    Spmd.run ~procs:4 (fun ctx ->
        let r = Spmd.rank ctx in
        for _ = 1 to 3 do
          phases.(r) <- phases.(r) + 1;
          Spmd.barrier ctx;
          (* After a barrier everyone has completed the same phase. *)
          Array.iter
            (fun p ->
              if abs (p - phases.(r)) > 1 then
                Alcotest.failf "phase skew: %d vs %d" p phases.(r))
            phases;
          Spmd.barrier ctx
        done)
  in
  Alcotest.(check (array int)) "all finished" [| 3; 3; 3; 3 |] phases

let test_spmd_ring () =
  (* Pass each rank's value around a ring; after P hops it returns home. *)
  let procs = 4 in
  let results =
    Spmd.run ~procs (fun ctx ->
        let r = Spmd.rank ctx in
        let v = ref r in
        for _ = 1 to procs do
          v :=
            Spmd.sendrecv ctx
              ~dst:((r + 1) mod procs)
              !v
              ~src:((r + procs - 1) mod procs)
        done;
        !v)
  in
  Alcotest.(check (array int)) "values home" [| 0; 1; 2; 3 |] results

let test_spmd_rank_and_procs () =
  let results =
    Spmd.run ~procs:3 (fun ctx -> (Spmd.rank ctx, Spmd.procs ctx))
  in
  Alcotest.(check (array (pair int int))) "ranks"
    [| (0, 3); (1, 3); (2, 3) |]
    results

let test_spmd_fifo_per_sender () =
  let results =
    Spmd.run ~procs:2 (fun ctx ->
        match Spmd.rank ctx with
        | 0 ->
          Spmd.send ctx ~dst:1 10;
          Spmd.send ctx ~dst:1 20;
          Spmd.send ctx ~dst:1 30;
          []
        | _ ->
          let a = Spmd.recv ctx ~src:0 in
          let b = Spmd.recv ctx ~src:0 in
          let c = Spmd.recv ctx ~src:0 in
          [ a; b; c ])
  in
  Alcotest.(check (list int)) "in order" [ 10; 20; 30 ] results.(1)

let test_spmd_validation () =
  (match Spmd.run ~procs:0 (fun _ -> ()) with
  | exception Tce_error.Error _ -> ()
  | _ -> Alcotest.fail "zero procs accepted");
  let (_ : unit array) =
    Spmd.run ~procs:1 (fun ctx ->
        match Spmd.send ctx ~dst:5 () with
        | exception Tce_error.Error _ -> ()
        | _ -> Alcotest.fail "bad rank accepted")
  in
  ()

let test_spmd_exception_propagates () =
  match Spmd.run ~procs:1 (fun _ -> failwith "boom") with
  | exception Spmd.Spmd_aborted { rank = 0; exn = Failure msg } ->
    Alcotest.(check string) "msg" "boom" msg
  | exception e -> Alcotest.failf "wrong exception: %s" (Printexc.to_string e)
  | _ -> Alcotest.fail "exception swallowed"

(* Regression for the seed deadlock: one participant raises while its
   peers are parked in a barrier. Before the abort broadcast, the peers
   waited forever and [run] never returned; now the whole team unwinds
   and the failure surfaces as [Spmd_aborted] with the raising rank. *)
let test_spmd_abort_unblocks_barrier () =
  match
    Spmd.run ~procs:4 (fun ctx ->
        if Spmd.rank ctx = 2 then failwith "dead node"
        else Spmd.barrier ctx)
  with
  | exception Spmd.Spmd_aborted { rank = 2; exn = Failure msg } ->
    Alcotest.(check string) "origin" "dead node" msg
  | exception e -> Alcotest.failf "wrong exception: %s" (Printexc.to_string e)
  | _ -> Alcotest.fail "deadlock-free run succeeded despite a dead rank"

(* Same regression through the other blocking primitive: peers parked in
   [recv] on a rank that died before sending. *)
let test_spmd_abort_unblocks_recv () =
  match
    Spmd.run ~procs:3 (fun ctx ->
        match Spmd.rank ctx with
        | 0 -> failwith "crashed before send"
        | r -> Spmd.recv ctx ~src:(r - 1))
  with
  | exception Spmd.Spmd_aborted { rank = 0; exn = Failure _ } -> ()
  | exception e -> Alcotest.failf "wrong exception: %s" (Printexc.to_string e)
  | _ -> Alcotest.fail "receivers were never unblocked"

(* Every arrival in a mailbox wakes the receive parked on it, and a
   message from another sender must not end the wait. Rank 1 parks on
   rank 0; rank 2's message lands first (after a pause that lets rank 1
   park) and only then does rank 0 send, ordered by an acknowledgement
   from rank 2. The parked receive returns rank 0's value and rank 2's
   stays queued for the next receive. *)
let test_spmd_parked_recv_selects () =
  let results =
    Spmd.run ~procs:3 (fun ctx ->
        match Spmd.rank ctx with
        | 0 ->
          let (_ : int) = Spmd.recv ctx ~src:2 in
          Spmd.send ctx ~dst:1 10;
          (0, 0)
        | 1 ->
          let a = Spmd.recv ctx ~src:0 in
          let b = Spmd.recv ctx ~src:2 in
          (a, b)
        | _ ->
          Unix.sleepf 0.02;
          Spmd.send ctx ~dst:1 20;
          Spmd.send ctx ~dst:0 0;
          (0, 0))
  in
  Alcotest.(check (pair int int)) "rank 0's value first" (10, 20) results.(1)

(* A rank may message itself (a cyclic shift along an axis of width one
   names the sender as its own neighbour): the send releases the mailbox
   before the receive takes it, so a team of one gets its values back. *)
let test_spmd_sendrecv_self () =
  let results =
    Spmd.run ~procs:1 (fun ctx ->
        let v = Spmd.sendrecv ctx ~dst:0 7 ~src:0 in
        v + Spmd.sendrecv ctx ~dst:0 35 ~src:0)
  in
  Alcotest.(check (array int)) "own values back" [| 42 |] results

(* Selective receive stays FIFO per sender when two senders interleave
   (exercises the per-sender queues). *)
let test_spmd_selective_recv_interleaved () =
  let n = 50 in
  let results =
    Spmd.run ~procs:3 (fun ctx ->
        match Spmd.rank ctx with
        | 2 ->
          let seen = ref [] in
          for k = 1 to n do
            (* Drain the two senders in alternating order regardless of
               arrival interleaving. *)
            let a = Spmd.recv ctx ~src:0 in
            let b = Spmd.recv ctx ~src:1 in
            ignore k;
            seen := b :: a :: !seen
          done;
          List.rev !seen
        | r ->
          for k = 1 to n do
            Spmd.send ctx ~dst:2 ((r * 1000) + k)
          done;
          [])
  in
  let expected =
    List.concat (List.init n (fun k -> [ k + 1; 1000 + k + 1 ]))
  in
  Alcotest.(check (list int)) "per-sender order" expected results.(2)

(* ---------------- Persistent pool ---------------- *)

(* One team of domains replays successive programs: ring exchange, then a
   barrier-phased program, then ranks — three distinct programs on the
   same mailboxes and barrier. *)
let test_pool_replays_programs () =
  Spmd.with_pool ~procs:4 (fun pool ->
      Alcotest.(check int) "size" 4 (Spmd.Pool.procs pool);
      let ring =
        Spmd.Pool.run pool (fun ctx ->
            let r = Spmd.rank ctx in
            let v = ref r in
            for _ = 1 to 4 do
              v := Spmd.sendrecv ctx ~dst:((r + 1) mod 4) !v ~src:((r + 3) mod 4)
            done;
            !v)
      in
      Alcotest.(check (array int)) "ring home" [| 0; 1; 2; 3 |] ring;
      let phased =
        Spmd.Pool.run pool (fun ctx ->
            Spmd.barrier ctx;
            Spmd.rank ctx * 10)
      in
      Alcotest.(check (array int)) "phased" [| 0; 10; 20; 30 |] phased;
      let ranks = Spmd.Pool.run pool (fun ctx -> Spmd.procs ctx) in
      Alcotest.(check (array int)) "procs" [| 4; 4; 4; 4 |] ranks)

(* Crash-safety survives pooling: program 2 aborts (one rank raises while
   peers park in a barrier), the pool resets, and program 3 runs clean on
   the same domains. *)
let test_pool_survives_abort () =
  Spmd.with_pool ~procs:4 (fun pool ->
      let first = Spmd.Pool.run pool (fun ctx -> Spmd.rank ctx) in
      Alcotest.(check (array int)) "step 1" [| 0; 1; 2; 3 |] first;
      (match
         Spmd.Pool.run pool (fun ctx ->
             if Spmd.rank ctx = 2 then failwith "mid-plan crash"
             else Spmd.barrier ctx)
       with
      | exception Spmd.Spmd_aborted { rank = 2; exn = Failure msg } ->
        Alcotest.(check string) "origin" "mid-plan crash" msg
      | exception e ->
        Alcotest.failf "wrong exception: %s" (Printexc.to_string e)
      | _ -> Alcotest.fail "abort swallowed");
      (* Mailboxes and barrier were left clean by the teardown. *)
      let third =
        Spmd.Pool.run pool (fun ctx ->
            let r = Spmd.rank ctx in
            Spmd.send ctx ~dst:((r + 1) mod 4) r;
            let v = Spmd.recv ctx ~src:((r + 3) mod 4) in
            Spmd.barrier ctx;
            v)
      in
      Alcotest.(check (array int)) "step 3" [| 3; 0; 1; 2 |] third)

(* Abort-teardown stress: one pool, 50 alternating failing/succeeding
   programs. Every odd program crashes a different rank (cycling through
   the team, sometimes while peers park in a barrier or a recv), every
   even program does real communication and must see clean mailboxes and
   an aligned barrier — i.e. the abort teardown leaves no residue. *)
let test_pool_abort_teardown_stress () =
  Spmd.with_pool ~procs:4 (fun pool ->
      for k = 1 to 50 do
        if k mod 2 = 1 then begin
          let victim = k / 2 mod 4 in
          match
            Spmd.Pool.run pool (fun ctx ->
                let r = Spmd.rank ctx in
                if r = victim then failwith (Printf.sprintf "crash %d" k)
                else if k mod 4 = 1 then Spmd.barrier ctx
                else ignore (Spmd.recv ctx ~src:victim : int))
          with
          | exception Spmd.Spmd_aborted { rank; exn = Failure msg } ->
            Alcotest.(check int) "aborting rank" victim rank;
            Alcotest.(check string) "origin" (Printf.sprintf "crash %d" k) msg
          | exception e ->
            Alcotest.failf "job %d: wrong exception: %s" k
              (Printexc.to_string e)
          | _ -> Alcotest.failf "job %d: abort swallowed" k
        end
        else begin
          let ring =
            Spmd.Pool.run pool (fun ctx ->
                let r = Spmd.rank ctx in
                Spmd.send ctx ~dst:((r + 1) mod 4) ((100 * k) + r);
                let v = Spmd.recv ctx ~src:((r + 3) mod 4) in
                Spmd.barrier ctx;
                v)
          in
          Alcotest.(check (array int))
            (Printf.sprintf "job %d clean" k)
            [|
              (100 * k) + 3; (100 * k) + 0; (100 * k) + 1; (100 * k) + 2;
            |]
            ring
        end
      done)

let test_pool_closed_rejects () =
  let pool = Spmd.Pool.create ~procs:2 in
  Spmd.Pool.close pool;
  Spmd.Pool.close pool (* idempotent *);
  match Spmd.Pool.run pool (fun _ -> ()) with
  | exception Tce_error.Error _ -> ()
  | _ -> Alcotest.fail "closed pool accepted a program"

(* ---------------- Multicore Cannon ---------------- *)

(* Run every Cannon variant of one contraction on [grid] against
   [Einsum], with random operands drawn from [seed]. *)
let check_variants grid ~seed bindings ~out ~left ~right ~sum ~variants =
  let e = extents bindings in
  let rng = Prng.create ~seed in
  let tensor names =
    Dense.create (List.map (fun n -> (i n, List.assoc n bindings)) names)
  in
  let l = tensor left and r = tensor right in
  Dense.fill_random l rng;
  Dense.fill_random r rng;
  let c =
    get_ok ~ctx:"c"
      (Contraction.make ~out:(aref "O" out) ~left:(aref "L" left)
         ~right:(aref "R" right) ~sum:(idx_list sum))
  in
  let reference = Einsum.contract2 ~out:(idx_list out) l r in
  let vs = Variant.all c in
  Alcotest.(check int) "variant count" variants (List.length vs);
  List.iter
    (fun v ->
      let got = Multicore.run_contraction grid e v ~left:l ~right:r in
      if not (Dense.equal_approx ~tol:1e-9 reference got) then
        Alcotest.failf "%dx%d: variant %s wrong" (Grid.rows grid)
          (Grid.cols grid)
          (Format.asprintf "%a" Variant.pp v))
    vs

(* A plain matmul under its three variants on a 2x2 grid. *)
let test_multicore_contraction () =
  check_variants (Grid.create_exn ~procs:4) ~seed:17
    [ ("x", 4); ("y", 4); ("k", 6) ]
    ~out:[ "x"; "y" ] ~left:[ "x"; "k" ] ~right:[ "k"; "y" ] ~sum:[ "k" ]
    ~variants:3

(* Two summed indices and an extra output index on the right operand
   (3·1·2·2 variants), on a square grid and on a 2x3 grid, whose
   schedule is the nested sweep. *)
let test_multicore_all_variants () =
  List.iter
    (fun (rows, cols) ->
      check_variants
        (Grid.create_rect_exn ~rows ~cols)
        ~seed:99
        [ ("x", 4); ("y", 6); ("u", 4); ("v", 6); ("w", 4) ]
        ~out:[ "x"; "y"; "v" ] ~left:[ "x"; "u"; "w" ]
        ~right:[ "u"; "w"; "y"; "v" ] ~sum:[ "u"; "w" ]
        ~variants:(3 * 1 * 2 * 2))
    [ (2, 2); (2, 3) ]

let test_multicore_rejects_small_extents () =
  let e = extents [ ("x", 2); ("y", 8); ("k", 8) ] in
  let grid = Grid.create_exn ~procs:16 (* side 4 > extent of x *) in
  let left = Dense.create [ (i "x", 2); (i "k", 8) ] in
  let right = Dense.create [ (i "k", 8); (i "y", 8) ] in
  let c =
    get_ok ~ctx:"c"
      (Contraction.make ~out:(aref "O" [ "x"; "y" ])
         ~left:(aref "L" [ "x"; "k" ])
         ~right:(aref "R" [ "k"; "y" ])
         ~sum:[ i "k" ])
  in
  let v = List.hd (Variant.all c) in
  match Multicore.run_contraction grid e v ~left ~right with
  | exception Tce_error.Error _ -> ()
  | _ -> Alcotest.fail "undersized extent accepted"

(* One pooled team carries three contractions, with a poisoned program
   injected after the first: the abort tears the second program down and
   the same domains still run the remaining contractions correctly. *)
let test_multicore_pool_reuse_with_abort () =
  let e = extents [ ("x", 4); ("y", 4); ("k", 6) ] in
  let grid = Grid.create_exn ~procs:4 in
  let rng = Prng.create ~seed:37 in
  let left = Dense.create [ (i "x", 4); (i "k", 6) ] in
  let right = Dense.create [ (i "k", 6); (i "y", 4) ] in
  Dense.fill_random left rng;
  Dense.fill_random right rng;
  let c =
    get_ok ~ctx:"c"
      (Contraction.make ~out:(aref "O" [ "x"; "y" ])
         ~left:(aref "L" [ "x"; "k" ])
         ~right:(aref "R" [ "k"; "y" ])
         ~sum:[ i "k" ])
  in
  let v = List.hd (Variant.all c) in
  let reference = Einsum.contract2 ~out:(idx_list [ "x"; "y" ]) left right in
  Spmd.with_pool ~procs:4 (fun pool ->
      let check label =
        let got = Multicore.run_contraction ~pool grid e v ~left ~right in
        Alcotest.(check bool) label true
          (Dense.equal_approx ~tol:1e-9 reference got)
      in
      check "contraction 1";
      (match
         Spmd.Pool.run pool (fun ctx ->
             if Spmd.rank ctx = 1 then failwith "injected" else Spmd.barrier ctx)
       with
      | exception Spmd.Spmd_aborted { rank = 1; _ } -> ()
      | exception e ->
        Alcotest.failf "wrong exception: %s" (Printexc.to_string e)
      | _ -> Alcotest.fail "abort swallowed");
      check "contraction 2 (after abort)";
      check "contraction 3")

let test_multicore_pool_size_mismatch () =
  let e = extents [ ("x", 4); ("y", 4); ("k", 6) ] in
  let grid = Grid.create_exn ~procs:4 in
  let left = Dense.create [ (i "x", 4); (i "k", 6) ] in
  let right = Dense.create [ (i "k", 6); (i "y", 4) ] in
  let c =
    get_ok ~ctx:"c"
      (Contraction.make ~out:(aref "O" [ "x"; "y" ])
         ~left:(aref "L" [ "x"; "k" ])
         ~right:(aref "R" [ "k"; "y" ])
         ~sum:[ i "k" ])
  in
  let v = List.hd (Variant.all c) in
  Spmd.with_pool ~procs:9 (fun pool ->
      match Multicore.run_contraction ~pool grid e v ~left ~right with
      | exception Tce_error.Error _ -> ()
      | _ -> Alcotest.fail "9-domain pool accepted a 4-processor grid")

(* The small CCSD plan searched for a [procs]-processor square grid, run
   on domains against [Sequence.eval] with inputs drawn from [seed]. *)
let check_plan_matches (procs, seed) =
  let problem, seq, tree = ccsd ~scale:`Small in
  let ext = problem.Problem.extents in
  let grid, cfg = search_config procs in
  let plan = get_ok ~ctx:"plan" (Search.optimize cfg ext tree) in
  let inputs = Sequence.random_inputs ext ~seed seq in
  let reference = Sequence.eval ext ~inputs seq in
  let got = Multicore.run_plan grid ext plan ~inputs in
  Alcotest.(check bool)
    (Printf.sprintf "P=%d seed %d" procs seed)
    true
    (Dense.equal_approx ~tol:1e-9 reference got)

let test_multicore_plan () = check_plan_matches (4, 23)

(* One processor (a single step, no exchange) and four. *)
let test_multicore_plans () = List.iter check_plan_matches [ (1, 7); (4, 28) ]

(* One engine, three ways to staff it: [run_plan] on a team it creates,
   on a caller's team twice over (a reused team carries nothing from one
   plan to the next), and step by step through [run_contraction], which
   spawns fresh domains for each contraction. All give the same bits. *)
let test_multicore_teams_bit_identical () =
  let problem, seq, tree = ccsd ~scale:`Small in
  let ext = problem.Problem.extents in
  let inputs = Sequence.random_inputs ext ~seed:41 seq in
  List.iter
    (fun (rows, cols) ->
      let grid = Grid.create_rect_exn ~rows ~cols in
      let cfg =
        Search.default_config ~grid ~params
          ~rcost:(Rcost.of_topology (Topology.uniform params) grid)
          ()
      in
      let plan = get_ok ~ctx:"plan" (Search.optimize cfg ext tree) in
      let label what = Printf.sprintf "%dx%d %s" rows cols what in
      let own = Multicore.run_plan grid ext plan ~inputs in
      let env = Hashtbl.create 8 in
      List.iter (fun (name, t) -> Hashtbl.replace env name t) inputs;
      let get a = Hashtbl.find env (Aref.name a) in
      List.iter
        (fun (ps : Plan.presum) ->
          Hashtbl.replace env (Aref.name ps.out)
            (Einsum.sum_over (get ps.source) ps.sum))
        plan.Plan.presums;
      let spawned =
        List.fold_left
          (fun _ (step : Plan.step) ->
            let c = step.contraction in
            let out =
              Multicore.run_contraction grid ext step.variant
                ~left:(get c.Contraction.left) ~right:(get c.Contraction.right)
            in
            Hashtbl.replace env (Aref.name c.Contraction.out) out;
            Some out)
          None plan.Plan.steps
      in
      Alcotest.(check bool) (label "spawned per step") true
        (Dense.bits_equal own (Option.get spawned));
      Spmd.with_pool ~procs:(Grid.procs grid) (fun pool ->
          List.iter
            (fun run ->
              let got = Multicore.run_plan ~pool grid ext plan ~inputs in
              Alcotest.(check bool) (label run) true (Dense.bits_equal own got))
            [ "caller's team"; "caller's team, reused" ]))
    [ (2, 2); (2, 3) ]

(* The exchanges one pass of [v]'s schedule makes on [grid], summed
   over its steps and every rank: one send and one receive each. *)
let scheduled_exchanges grid v =
  let sched = Schedule.make v grid in
  List.fold_left
    (fun n step ->
      List.fold_left
        (fun n (z1, z2) ->
          n + List.length (Schedule.shifts_after sched ~step ~z1 ~z2))
        n (Grid.coords grid))
    0
    (List.init (Schedule.steps sched) Fun.id)

(* The executor moves exactly the blocks its schedule lists: one
   message per exchange, none along a length-1 axis and none after the
   final step. On a square grid that is 2·(side − 1) blocks per rank. *)
let test_multicore_sends_scheduled_shifts () =
  let bindings = [ ("x", 4); ("y", 6); ("u", 4); ("v", 6); ("w", 4) ] in
  let ext = extents bindings in
  let tensor names =
    Dense.create (List.map (fun n -> (i n, List.assoc n bindings)) names)
  in
  let left = tensor [ "x"; "u"; "w" ]
  and right = tensor [ "u"; "w"; "y"; "v" ] in
  let c =
    get_ok ~ctx:"c"
      (Contraction.make
         ~out:(aref "O" [ "x"; "y"; "v" ])
         ~left:(aref "L" [ "x"; "u"; "w" ])
         ~right:(aref "R" [ "u"; "w"; "y"; "v" ])
         ~sum:(idx_list [ "u"; "w" ]))
  in
  List.iter
    (fun (rows, cols) ->
      let grid = Grid.create_rect_exn ~rows ~cols in
      Spmd.with_pool ~procs:(Grid.procs grid) (fun pool ->
          List.iter
            (fun v ->
              let ctx = Format.asprintf "%dx%d %a" rows cols Variant.pp v in
              let s = Obs.create () in
              let (_ : Dense.t) =
                Obs.with_sink s (fun () ->
                    Multicore.run_contraction ~pool grid ext v ~left ~right)
              in
              let counter name =
                Option.value ~default:0 (List.assoc_opt name (Obs.counters s))
              in
              let scheduled = scheduled_exchanges grid v in
              Alcotest.(check int) (ctx ^ ": sends") scheduled
                (counter "spmd.sends");
              Alcotest.(check int) (ctx ^ ": recvs") scheduled
                (counter "spmd.recvs");
              if Grid.is_square grid then
                Alcotest.(check int) (ctx ^ ": 2(side-1) per rank")
                  (2 * Grid.procs grid * (rows - 1))
                  scheduled)
            (Variant.all c)))
    [ (1, 1); (2, 2); (3, 3); (1, 2); (2, 1); (2, 3); (2, 4) ]

(* Liveness-based freeing: on the 3-step CCSD plan the intermediates T1
   and T2 (and the consumed inputs) are dropped after their last use; the
   final output S never is. *)
let test_multicore_plan_frees_intermediates () =
  let problem, seq, tree = ccsd ~scale:`Small in
  let ext = problem.Problem.extents in
  let grid, cfg = search_config 4 in
  let plan = get_ok ~ctx:"plan" (Search.optimize cfg ext tree) in
  let inputs = Sequence.random_inputs ext ~seed:43 seq in
  let freed = ref [] in
  let got =
    Multicore.run_plan ~on_free:(fun n -> freed := n :: !freed) grid ext plan
      ~inputs
  in
  let reference = Sequence.eval ext ~inputs seq in
  Alcotest.(check bool) "result intact" true
    (Dense.equal_approx ~tol:1e-9 reference got);
  Alcotest.(check bool) "T1 freed" true (List.mem "T1" !freed);
  Alcotest.(check bool) "T2 freed" true (List.mem "T2" !freed);
  Alcotest.(check bool) "final output kept" false (List.mem "S" !freed)

(* Ranks read the caller's tensors in place rather than copying their
   blocks out, so a run must leave every input as it found it, bit for
   bit, on square and rectangular grids. *)
let test_multicore_inputs_untouched () =
  let problem, seq, tree = ccsd ~scale:`Small in
  let ext = problem.Problem.extents in
  let inputs = Sequence.random_inputs ext ~seed:53 seq in
  let before = List.map (fun (name, t) -> (name, Dense.copy t)) inputs in
  List.iter
    (fun (rows, cols) ->
      let grid = Grid.create_rect_exn ~rows ~cols in
      let cfg =
        Search.default_config ~grid ~params
          ~rcost:(Rcost.of_topology (Topology.uniform params) grid)
          ()
      in
      let plan = get_ok ~ctx:"plan" (Search.optimize cfg ext tree) in
      ignore (Multicore.run_plan grid ext plan ~inputs : Dense.t);
      List.iter2
        (fun (name, t) (_, t0) ->
          if not (Dense.bits_equal t0 t) then
            Alcotest.failf "%dx%d: input %s was written" rows cols name)
        inputs before)
    [ (1, 2); (2, 2); (2, 3); (3, 3) ]

(* An FNV-style fold of every element's IEEE-754 bits, in storage order:
   two outputs share a digest only if they agree bit for bit (up to
   hash collisions). *)
let bits_digest t =
  Array.fold_left
    (fun h x ->
      Int64.mul (Int64.logxor h (Int64.bits_of_float x)) 0x100000001b3L)
    0xcbf29ce484222325L (Dense.to_floats t)

(* The executor's output bits on the small CCSD plan, pinned per grid
   shape (square and rectangular), at every GEMM tile width the host
   supports. Any rewrite of the Cannon executor must reproduce them
   exactly: it multiplies the same blocks in the same order. Only a
   deliberate change to the kernel's arithmetic may re-pin these
   digests, with a CHANGES.md note saying why. *)
let test_multicore_plan_bits_pinned () =
  let problem, seq, tree = ccsd ~scale:`Small in
  let ext = problem.Problem.extents in
  let inputs = Sequence.random_inputs ext ~seed:47 seq in
  let reference = Sequence.eval ext ~inputs seq in
  let digest (rows, cols) =
    let grid = Grid.create_rect_exn ~rows ~cols in
    let cfg =
      Search.default_config ~grid ~params
        ~rcost:(Rcost.of_topology (Topology.uniform params) grid)
        ()
    in
    let plan = get_ok ~ctx:"plan" (Search.optimize cfg ext tree) in
    let got = Multicore.run_plan grid ext plan ~inputs in
    if not (Dense.equal_approx ~tol:1e-9 reference got) then
      Alcotest.failf "%dx%d: result diverges from the reference" rows cols;
    (Printf.sprintf "%dx%d" rows cols, bits_digest got)
  in
  at_every_width @@ fun lanes ->
  Alcotest.(check (list (pair string int64)))
    (Printf.sprintf "pinned digests at %d lanes" lanes)
    [
      ("2x2", 1149507191540658107L);
      ("3x3", -299483454052369335L);
      ("1x2", 5355921958517479362L);
      ("2x3", 5314729829261806547L);
    ]
    (List.map digest [ (2, 2); (3, 3); (1, 2); (2, 3) ])

(* ---------------- Plans with their fusion ---------------- *)

(* CCSD (small by default) planned for an R x C grid under an optional
   limit. *)
let ccsd_plan ?(scale = `Small) ?mem_limit_bytes (rows, cols) =
  let problem, seq, tree = ccsd ~scale in
  let ext = problem.Problem.extents in
  let grid = Grid.create_rect_exn ~rows ~cols in
  let cfg =
    Search.default_config ?mem_limit_bytes ~grid ~params
      ~rcost:(Rcost.of_topology (Topology.uniform params) grid)
      ()
  in
  (grid, ext, seq, get_ok ~ctx:"plan" (Search.optimize cfg ext tree))

let budget (plan : Plan.t) =
  plan.Plan.mem.Memacct.resident_words + plan.Plan.mem.Memacct.buffer_words

let test_unfused_plan () =
  let grid, ext, seq, plan = ccsd_plan (2, 2) in
  let inputs = Sequence.random_inputs ext ~seed:41 seq in
  let reference = Sequence.eval ext ~inputs seq in
  let st = Multicore.run_plan_stats grid ext plan ~inputs in
  Alcotest.(check bool) "values" true
    (Dense.equal_approx ~tol:1e-9 reference st.Multicore.result);
  (* Unfused: each of the three steps rotates two arrays exactly once. *)
  Alcotest.(check int) "rotations" 6 st.Multicore.sliced_rotations

let test_fused_plan_reduces_memory () =
  let grid, ext, seq, unfused = ccsd_plan (2, 2) in
  let _, _, _, fused = ccsd_plan ~mem_limit_bytes:130_000.0 (2, 2) in
  Alcotest.(check bool) "plan really fuses" true
    (List.exists
       (fun (s : Plan.step) -> not (Index.Set.is_empty s.fusion_out))
       fused.Plan.steps);
  let inputs = Sequence.random_inputs ext ~seed:42 seq in
  let reference = Sequence.eval ext ~inputs seq in
  let st_unfused = Multicore.run_plan_stats grid ext unfused ~inputs in
  let st_fused = Multicore.run_plan_stats grid ext fused ~inputs in
  Alcotest.(check bool) "fused values" true
    (Dense.equal_approx ~tol:1e-9 reference st_fused.Multicore.result);
  Alcotest.(check bool) "measured memory shrinks" true
    (st_fused.Multicore.peak_words_per_proc
    < st_unfused.Multicore.peak_words_per_proc);
  Alcotest.(check bool) "more, smaller rotations" true
    (st_fused.Multicore.sliced_rotations
    > st_unfused.Multicore.sliced_rotations)

let test_rotation_count_matches_msg_factors () =
  let grid, ext, seq, plan = ccsd_plan ~mem_limit_bytes:130_000.0 (2, 2) in
  let inputs = Sequence.random_inputs ext ~seed:43 seq in
  let st = Multicore.run_plan_stats grid ext plan ~inputs in
  Alcotest.(check int) "rotations = sum of MsgFactors"
    (msg_factors grid ext plan) st.Multicore.sliced_rotations

let test_peak_within_plan_accounting () =
  let grid, ext, seq, plan = ccsd_plan ~mem_limit_bytes:130_000.0 (2, 2) in
  let inputs = Sequence.random_inputs ext ~seed:44 seq in
  let st = Multicore.run_plan_stats grid ext plan ~inputs in
  (* The optimizer keeps every array resident; the executor drops
     consumed slices, so no rank's measured peak may exceed the plan's
     account. *)
  Alcotest.(check bool) "peak within accounting" true
    (st.Multicore.peak_words_per_proc <= budget plan)

let test_missing_input () =
  let grid, ext, seq, plan = ccsd_plan (2, 2) in
  let inputs = List.tl (Sequence.random_inputs ext ~seed:45 seq) in
  match Multicore.run_plan_stats grid ext plan ~inputs with
  | exception Tce_error.Error (Tce_error.Missing_tensor _) -> ()
  | _ -> Alcotest.fail "missing input accepted"

(* The fused example's table on 2x2 (EXPERIMENTS.md): per limit, the
   sliced rotations and the largest rank's peak words. At 200,000 bytes
   only a leaf edge is fused, D's on {l}: that streams D in six slices
   and adds no loop, so B still rotates once, 11 rotations in all as the
   model charges (a loop over l would rotate B six times: 16). The peak
   is a maximum over ranks, not an average: on 3x3 the tiny CCSD's
   blocks are uneven, and its largest rank holds 576 words where the
   average over ranks is 438. *)
let test_fused_example_pinned () =
  let run ?scale ?mem_limit_bytes shape =
    let grid, ext, seq, plan = ccsd_plan ?scale ?mem_limit_bytes shape in
    let inputs = Sequence.random_inputs ext ~seed:49 seq in
    let st = Multicore.run_plan_stats grid ext plan ~inputs in
    (st.Multicore.sliced_rotations, st.Multicore.peak_words_per_proc)
  in
  Alcotest.(check (list (pair int int)))
    "2x2 rows"
    [ (6, 11088); (11, 11088); (34, 8064); (72, 6732); (72, 6732) ]
    (List.map
       (fun mem_limit_bytes -> run ?mem_limit_bytes (2, 2))
       [ None; Some 200_000.0; Some 150_000.0; Some 130_000.0; Some 120_000.0 ]);
  Alcotest.(check (pair int int)) "tiny on 3x3" (6, 576)
    (run ~scale:`Tiny (3, 3))

(* Small CCSD under limits stepped down x0.8 from 400,000 bytes, on
   square and R x C grids: plans whose intermediates are fused with
   their consumers (forcing loops), and plans that fuse only leaf
   edges. Each must compute the reference values, execute exactly the
   rotations the model charges, send exactly its schedules' exchanges
   once per pass, and keep every rank within the plan's memory
   account. *)
let test_fused_plan_sweep () =
  let forcing =
    [
      ((2, 2), 163_840.0); ((2, 2), 131_072.0); ((1, 2), 320_000.0);
      ((1, 2), 256_000.0); ((2, 1), 320_000.0); ((2, 1), 256_000.0);
      ((2, 3), 131_072.0); ((2, 3), 104_858.0); ((2, 3), 83_886.0);
      ((3, 3), 83_886.0); ((3, 3), 53_687.0);
    ]
  and leaf_only =
    [ ((2, 2), Some 204_800.0); ((1, 2), None); ((2, 1), None) ]
  in
  let runs =
    List.map (fun (shape, limit) -> (shape, Some limit, true)) forcing
    @ List.map (fun (shape, limit) -> (shape, limit, false)) leaf_only
  in
  List.iteri
    (fun k (((rows, cols) as shape), mem_limit_bytes, loops) ->
      let ctx =
        Printf.sprintf "%dx%d at %s" rows cols
          (match mem_limit_bytes with
          | Some b -> Printf.sprintf "%.0f B" b
          | None -> "no limit")
      in
      let grid, ext, seq, plan = ccsd_plan ?mem_limit_bytes shape in
      let fuses f = List.exists f plan.Plan.steps in
      Alcotest.(check bool) (ctx ^ ": forcing loop") loops
        (fuses (fun s -> not (Index.Set.is_empty s.Plan.fusion_out)));
      Alcotest.(check bool) (ctx ^ ": fused leaf edge") true
        (fuses (fun s ->
             not
               (Index.Set.is_empty
                  (Index.Set.union s.Plan.fusion_left s.Plan.fusion_right))));
      let inputs = Sequence.random_inputs ext ~seed:(100 + k) seq in
      let sink = Obs.create () in
      let st =
        Obs.with_sink sink (fun () ->
            Multicore.run_plan_stats grid ext plan ~inputs)
      in
      if
        not
          (Dense.equal_approx ~tol:1e-9 (Sequence.eval ext ~inputs seq)
             st.Multicore.result)
      then Alcotest.failf "%s: output differs from the reference" ctx;
      Alcotest.(check int) (ctx ^ ": rotations") (msg_factors grid ext plan)
        st.Multicore.sliced_rotations;
      (* A step runs one pass (one [contraction:<out>] span) per value of
         its forcing loops: its parent edge's fusion and that of each
         stored operand. Every pass sends and receives its schedule's
         exchanges, no more. *)
      let counter name =
        Option.value ~default:0 (List.assoc_opt name (Obs.counters sink))
      in
      let stored aref =
        let name = Aref.name aref in
        List.exists
          (fun (s : Plan.step) -> Aref.name s.contraction.out = name)
          plan.Plan.steps
        || List.exists
             (fun (ps : Plan.presum) -> Aref.name ps.out = name)
             plan.Plan.presums
      in
      let passes, sends =
        List.fold_left
          (fun (passes, sends) (step : Plan.step) ->
            let forcing =
              List.fold_left
                (fun acc (role, fused) ->
                  if stored (Variant.aref_of step.variant role) then
                    Index.Set.union acc fused
                  else acc)
                step.fusion_out
                [
                  (Variant.Left, step.fusion_left);
                  (Variant.Right, step.fusion_right);
                ]
            in
            let n =
              Index.Set.fold (fun i n -> n * Extents.extent ext i) forcing 1
            in
            let span = "contraction:" ^ Aref.name step.contraction.out in
            Alcotest.(check int) (ctx ^ ": passes of " ^ span) n
              (List.length
                 (List.filter
                    (fun (e : Obs.event) -> e.name = span)
                    (Obs.events sink)));
            (passes + n, sends + (n * scheduled_exchanges grid step.variant)))
          (0, 0) plan.Plan.steps
      in
      Alcotest.(check int) (ctx ^ ": events kept") 0 (Obs.dropped sink);
      Alcotest.(check int) (ctx ^ ": passes") passes
        (counter "multicore.contractions");
      Alcotest.(check int) (ctx ^ ": sends") sends (counter "spmd.sends");
      Alcotest.(check int) (ctx ^ ": recvs") sends (counter "spmd.recvs");
      if st.Multicore.peak_words_per_proc > budget plan then
        Alcotest.failf "%s: per-rank peak %d above the account %d" ctx
          st.Multicore.peak_words_per_proc (budget plan))
    runs

(* Plans outside the search's fusion rules are refused as typed errors
   before any step runs: a fused index a distribution splits (its loop
   would pin an index the grid chunks), and a fused loop around a step
   that leaves a rotated operand whole (it would rotate unsliced, which
   the model never charges). *)
let test_unexecutable_fusion_refused () =
  let grid, ext, seq, plan = ccsd_plan ~mem_limit_bytes:130_000.0 (2, 2) in
  let inputs = Sequence.random_inputs ext ~seed:48 seq in
  let refused what edit =
    let plan = { plan with Plan.steps = List.map edit plan.Plan.steps } in
    match Multicore.run_plan_stats grid ext plan ~inputs with
    | exception Tce_error.Error (Tce_error.Msg _) -> ()
    | _ -> Alcotest.failf "%s accepted" what
  in
  refused "a distributed fused index" (fun s ->
      let t = List.hd (Dist.indices (Variant.dist_of s.variant Variant.Left)) in
      { s with fusion_left = Index.Set.add t s.fusion_left });
  refused "an unsliced rotated operand" (fun s ->
      let whole role fused =
        if Variant.rotates s.variant role then Index.Set.empty else fused
      in
      if Index.Set.is_empty s.fusion_out then s
      else
        {
          s with
          fusion_left = whole Variant.Left s.fusion_left;
          fusion_right = whole Variant.Right s.fusion_right;
        })

let suite =
  [
    ( "runtime.spmd",
      [
        case "barrier alignment" test_spmd_barrier_counts;
        case "ring exchange" test_spmd_ring;
        case "ranks and sizes" test_spmd_rank_and_procs;
        case "FIFO per sender" test_spmd_fifo_per_sender;
        case "validation" test_spmd_validation;
        case "exceptions propagate" test_spmd_exception_propagates;
        case "abort unblocks barrier (deadlock regression)"
          test_spmd_abort_unblocks_barrier;
        case "abort unblocks recv" test_spmd_abort_unblocks_recv;
        case "parked recv waits out other senders" test_spmd_parked_recv_selects;
        case "sendrecv with itself" test_spmd_sendrecv_self;
        case "selective recv, interleaved senders"
          test_spmd_selective_recv_interleaved;
      ] );
    ( "runtime.pool",
      [
        case "replays successive programs" test_pool_replays_programs;
        case "survives an abort" test_pool_survives_abort;
        case "50 alternating failing/succeeding jobs"
          test_pool_abort_teardown_stress;
        case "closed pool rejects programs" test_pool_closed_rejects;
      ] );
    ( "runtime.multicore",
      [
        case "contraction under every variant" test_multicore_contraction;
        case "all Cannon variants compute correctly"
          test_multicore_all_variants;
        case "undersized extents rejected"
          test_multicore_rejects_small_extents;
        case "pool reuse across contractions with a mid-sequence abort"
          test_multicore_pool_reuse_with_abort;
        case "pool size must match the grid" test_multicore_pool_size_mismatch;
        case "whole plan matches reference" test_multicore_plan;
        case "whole plans match the reference" test_multicore_plans;
        case "spawned and pooled teams bit-identical on a plan"
          test_multicore_teams_bit_identical;
        case "domains send only the scheduled shifts"
          test_multicore_sends_scheduled_shifts;
        case "intermediates freed after last use"
          test_multicore_plan_frees_intermediates;
        case "plan output bits pinned per grid shape"
          test_multicore_plan_bits_pinned;
        case "inputs are never written" test_multicore_inputs_untouched;
        case "unfused plan matches reference" test_unfused_plan;
        case "fused plan: correct values, less memory"
          test_fused_plan_reduces_memory;
        case "sliced rotations = sum of MsgFactors"
          test_rotation_count_matches_msg_factors;
        case "measured peak within the plan's accounting"
          test_peak_within_plan_accounting;
        case "missing input reported" test_missing_input;
        case "fused example's rotations and per-rank peaks pinned"
          test_fused_example_pinned;
        case "fused plans on every grid shape" test_fused_plan_sweep;
        case "plans outside the fusion rules refused"
          test_unexecutable_fusion_refused;
      ] );
  ]
