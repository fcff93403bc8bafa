(* Tests for the generalized Cannon algorithm: contraction classification,
   variant enumeration, and the executable schedules. *)

open Tce
open Helpers
module G = QCheck2.Gen

let t1_contraction () =
  get_ok ~ctx:"contraction"
    (Contraction.make
       ~out:(aref "T1" [ "b"; "c"; "d"; "f" ])
       ~left:(aref "B" [ "b"; "e"; "f"; "l" ])
       ~right:(aref "D" [ "c"; "d"; "e"; "l" ])
       ~sum:(idx_list [ "e"; "l" ]))

let test_classification () =
  let c = t1_contraction () in
  Alcotest.(check (list string)) "I" [ "b"; "f" ]
    (List.map Index.name c.Contraction.i_set);
  Alcotest.(check (list string)) "J" [ "c"; "d" ]
    (List.map Index.name c.Contraction.j_set);
  Alcotest.(check (list string)) "K" [ "e"; "l" ]
    (List.map Index.name c.Contraction.k_set);
  Alcotest.(check int) "patterns 3*2*2*2" 24 (Contraction.pattern_count c)

let test_flops () =
  let e = extents [ ("b", 4); ("c", 5); ("d", 6); ("f", 7); ("e", 2); ("l", 3) ] in
  Alcotest.(check int) "2*|I||J||K|" (2 * 4 * 7 * 5 * 6 * 2 * 3)
    (Contraction.flops e (t1_contraction ()))

let test_rejects_hadamard () =
  ignore
    (get_error ~ctx:"hadamard"
       (Contraction.make
          ~out:(aref "S" [ "t" ])
          ~left:(aref "X" [ "j"; "t" ])
          ~right:(aref "Y" [ "j"; "t" ])
          ~sum:[ i "j" ]))

let test_rejects_empty_sets () =
  (* Empty J: both output indices come from the left operand. *)
  ignore
    (get_error ~ctx:"empty J"
       (Contraction.make
          ~out:(aref "S" [ "a"; "b" ])
          ~left:(aref "X" [ "a"; "b"; "k" ])
          ~right:(aref "Y" [ "k" ])
          ~sum:[ i "k" ]))

let test_of_formula_rejections () =
  let mult =
    get_ok ~ctx:"mult"
      (Formula.mult (aref "T" [ "a"; "b" ]) (aref "X" [ "a" ]) (aref "Y" [ "b" ]))
  in
  ignore (get_error ~ctx:"mult formula" (Contraction.of_formula mult));
  let summ =
    get_ok ~ctx:"sum"
      (Formula.sum (aref "T" [ "a" ]) [ i "k" ] (aref "X" [ "a"; "k" ]))
  in
  ignore (get_error ~ctx:"sum formula" (Contraction.of_formula summ));
  let ok =
    get_ok ~ctx:"contract"
      (Formula.contract (aref "T" [ "a"; "b" ]) [ i "k" ]
         (aref "X" [ "a"; "k" ]) (aref "Y" [ "k"; "b" ]))
  in
  ignore (get_ok ~ctx:"accepted" (Contraction.of_formula ok))

let test_of_tree_node () =
  let _, _, tree = ccsd ~scale:`Tiny in
  match tree with
  | Tree.Contract _ ->
    let c = get_ok ~ctx:"of_tree_node" (Contraction.of_tree_node tree) in
    Alcotest.(check string) "out" "S" (Aref.name c.Contraction.out)
  | _ -> Alcotest.fail "expected contract node"

(* ---------------- Variant ---------------- *)

let test_variant_enumeration () =
  let c = t1_contraction () in
  let vs = Variant.all c in
  Alcotest.(check int) "count = pattern_count" (Contraction.pattern_count c)
    (List.length vs);
  (* Every variant names a fixed role and two rotated roles with axes. *)
  List.iter
    (fun v ->
      let rot = Variant.rotated v in
      Alcotest.(check int) "two rotated" 2 (List.length rot);
      Alcotest.(check bool) "fixed not rotated" false
        (Variant.rotates v (Variant.fixed_role v));
      List.iter
        (fun (role, axis) ->
          Alcotest.(check bool) "axis valid" true (axis = 1 || axis = 2);
          (* The rotation index must be a dimension of every rotated
             array. *)
          Alcotest.(check bool) "rot index present" true
            (List.exists
               (Index.equal (Variant.rot_index v))
               (Variant.array_dims v role)))
        rot)
    vs

let test_variant_dists_consistent () =
  let c = t1_contraction () in
  List.iter
    (fun v ->
      (* Out is distributed on (i, j); left on {i, k}; right on {k, j}. *)
      let contents role =
        List.sort compare (List.map Index.name (Dist.indices (Variant.dist_of v role)))
      in
      Alcotest.(check (list string)) "out"
        (List.sort compare [ Index.name v.Variant.i; Index.name v.Variant.j ])
        (contents Variant.Out);
      Alcotest.(check (list string)) "left"
        (List.sort compare [ Index.name v.Variant.i; Index.name v.Variant.k ])
        (contents Variant.Left);
      Alcotest.(check (list string)) "right"
        (List.sort compare [ Index.name v.Variant.k; Index.name v.Variant.j ])
        (contents Variant.Right))
    (Variant.all c)

let test_variant_make_validation () =
  let c = t1_contraction () in
  ignore
    (get_error ~ctx:"bad i"
       (Variant.make c ~i:(i "c") ~j:(i "c") ~k:(i "e") ~rot:Variant.Rot_k))

(* ---------------- Schedule ---------------- *)

let all_variants () = Variant.all (t1_contraction ())
let roles = [ Variant.Out; Variant.Left; Variant.Right ]

(* Square grids and R×C shapes where one axis length divides the other
   (the skewed single pass) or not (the nested sweep). *)
let schedule_grids =
  List.map
    (fun (rows, cols) -> Grid.create_rect_exn ~rows ~cols)
    [
      (1, 1); (2, 2); (3, 3); (4, 4); (1, 2); (2, 1); (2, 3); (3, 2); (2, 4);
      (4, 2); (3, 4);
    ]

(* Ragged: no axis length above 1 divides every extent. *)
let schedule_ext =
  extents [ ("b", 7); ("c", 5); ("d", 6); ("f", 9); ("e", 11); ("l", 5) ]

let grid_name g = Printf.sprintf "%dx%d" (Grid.rows g) (Grid.cols g)

(* Every (grid, variant) pair with its schedule. *)
let for_all_schedules f =
  List.iter
    (fun grid ->
      List.iter (fun v -> f grid v (Schedule.make v grid)) (all_variants ()))
    schedule_grids

let is_permutation grid s role ~step =
  let seen = Hashtbl.create 16 in
  List.for_all
    (fun (z1, z2) ->
      let ((b1, b2) as b) = Schedule.block_at s role ~step ~z1 ~z2 in
      b1 >= 0 && b1 < Grid.rows grid && b2 >= 0 && b2 < Grid.cols grid
      && (not (Hashtbl.mem seen b))
      && (Hashtbl.add seen b (); true))
    (Grid.coords grid)

let test_schedule_permutation () =
  for_all_schedules (fun grid _ s ->
      for step = 0 to Schedule.steps s - 1 do
        List.iter
          (fun role ->
            if not (is_permutation grid s role ~step) then
              Alcotest.failf "%s: not a permutation at step %d"
                (grid_name grid) step)
          roles
      done)

(* The local multiply at every processor and step must be coherent: the
   roles agree on the chunk of every index they share and chunk at the
   same granularity. That is every shared index but the rotation index
   ω, and ω too on a square grid; on an R×C grid the two ω chunkings
   differ and the window property below covers ω. *)
let test_schedule_coherence () =
  let ext = schedule_ext in
  for_all_schedules (fun grid v s ->
      let chunk_len role x =
        match Dist.position_of (Variant.dist_of v role) x with
        | Some axis -> Some (Grid.axis_len grid ~axis)
        | None -> None
      in
      for step = 0 to Schedule.steps s - 1 do
        List.iter
          (fun (z1, z2) ->
            let ranges role =
              Schedule.block_ranges s ext role
                ~dims:(Dist.indices (Variant.dist_of v role))
                ~step ~z1 ~z2
            in
            List.iter
              (fun (r1, r2) ->
                List.iter
                  (fun (x, range) ->
                    match List.assoc_opt x (ranges r2) with
                    | Some range'
                      when chunk_len r1 x = chunk_len r2 x && range <> range'
                      ->
                      Alcotest.failf "%s: %s chunk mismatch at (%d,%d) step %d"
                        (grid_name grid) (Index.name x) z1 z2 step
                    | _ -> ())
                  (ranges r1))
              [ (Variant.Out, Variant.Left); (Variant.Out, Variant.Right);
                (Variant.Left, Variant.Right) ])
          (Grid.coords grid)
      done)

(* Over the whole schedule each rank multiplies every ω element exactly
   once. A rank's fixed block pins its chunks of the two other
   distributed indices, so this is once per pair of those chunks (per
   (i-block, j-block) when ω = k). *)
let test_schedule_covers_omega_once () =
  let ext = schedule_ext in
  for_all_schedules (fun grid v s ->
      let n = Extents.extent ext (Variant.rot_index v) in
      List.iter
        (fun (z1, z2) ->
          let counts = Array.make n 0 in
          for step = 0 to Schedule.steps s - 1 do
            match Schedule.window s ext ~step ~z1 ~z2 with
            | None -> ()
            | Some (lo, len) ->
              for e = lo to lo + len - 1 do
                counts.(e) <- counts.(e) + 1
              done
          done;
          if Array.exists (fun c -> c <> 1) counts then
            Alcotest.failf "%s: rank (%d,%d) covers ω unevenly under %s"
              (grid_name grid) z1 z2 (Format.asprintf "%a" Variant.pp v))
        (Grid.coords grid))

(* Across the whole grid and schedule every element product is computed
   exactly once: each (α, β) element of the fixed role's two distributed
   indices, times each ω element, lands in exactly one rank's window at
   exactly one step. Counted per element, not per block, because on an
   R×C grid the two rotated roles chunk ω differently. *)
let test_schedule_covers_block_products () =
  let ext = schedule_ext in
  for_all_schedules (fun grid v s ->
      let fixed = Variant.fixed_role v in
      let a, b =
        match Dist.indices (Variant.dist_of v fixed) with
        | [ a; b ] -> (a, b)
        | _ -> Alcotest.fail "fixed role must distribute two indices"
      in
      let na = Extents.extent ext a and nb = Extents.extent ext b in
      let nw = Extents.extent ext (Variant.rot_index v) in
      let counts = Array.make (na * nb * nw) 0 in
      for step = 0 to Schedule.steps s - 1 do
        List.iter
          (fun (z1, z2) ->
            match
              ( Schedule.block_ranges s ext fixed ~dims:[ a; b ] ~step ~z1 ~z2,
                Schedule.window s ext ~step ~z1 ~z2 )
            with
            | [ (_, (ao, al)); (_, (bo, bl)) ], Some (wo, wl) ->
              for x = ao to ao + al - 1 do
                for y = bo to bo + bl - 1 do
                  for w = wo to wo + wl - 1 do
                    let c = (((x * nb) + y) * nw) + w in
                    counts.(c) <- counts.(c) + 1
                  done
                done
              done
            | _, None -> ()
            | _ -> Alcotest.fail "fixed block must range over two indices")
          (Grid.coords grid)
      done;
      if Array.exists (fun c -> c <> 1) counts then
        Alcotest.failf "%s: element products not covered once under %s"
          (grid_name grid) (Format.asprintf "%a" Variant.pp v))

(* A square grid is the m = 1 case, and [Simulate] relies on its
   closed form: [side] steps, the fixed role at home, each rotated
   role holding ω chunk [(z1 + z2 + t) mod side] along its axis, and both
   rotated roles moving after every step but the last. *)
let test_schedule_square_skew () =
  for_all_schedules (fun grid v s ->
      if Grid.is_square grid then begin
        let side = Grid.rows grid in
        Alcotest.(check int) (grid_name grid ^ ": steps") side
          (Schedule.steps s);
        for step = 0 to side - 1 do
          List.iter
            (fun (z1, z2) ->
              let q = (z1 + z2 + step) mod side in
              let expect role =
                match Variant.axis_of v role with
                | None -> (z1, z2)
                | Some 1 -> (q, z2)
                | Some _ -> (z1, q)
              in
              List.iter
                (fun role ->
                  if Schedule.block_at s role ~step ~z1 ~z2 <> expect role then
                    Alcotest.failf "%s: (%d,%d) off the skew at step %d"
                      (grid_name grid) z1 z2 step)
                roles;
              let moved =
                List.sort compare (Schedule.shifts_after s ~step ~z1 ~z2)
              in
              let expected =
                if step = side - 1 || side = 1 then []
                else List.sort compare (Variant.rotated v)
              in
              if moved <> expected then
                Alcotest.failf "%s: (%d,%d) moves the wrong roles after %d"
                  (grid_name grid) z1 z2 step)
            (Grid.coords grid)
        done
      end)

(* The step count per shape: [side] on a square grid, the fine axis
   length when the coarse one divides it (the skewed single pass),
   [rows · cols] otherwise (the nested sweep). *)
let test_schedule_step_counts () =
  for_all_schedules (fun grid _ s ->
      let fine = max (Grid.rows grid) (Grid.cols grid)
      and coarse = min (Grid.rows grid) (Grid.cols grid) in
      let expected = if fine mod coarse = 0 then fine else fine * coarse in
      Alcotest.(check int) (grid_name grid) expected (Schedule.steps s))

(* A role that shifts after step t holds at t+1 what its +1 neighbour
   along the shift axis held at t, and that neighbour lists the same
   exchange; every other role keeps its block. *)
let test_schedule_landing () =
  for_all_schedules (fun grid v s ->
      for step = 0 to Schedule.steps s - 2 do
        List.iter
          (fun (z1, z2) ->
            let shifts = Schedule.shifts_after s ~step ~z1 ~z2 in
            List.iter
              (fun role ->
                let now = Schedule.block_at s role ~step:(step + 1) ~z1 ~z2 in
                let expected =
                  match Variant.axis_of v role with
                  | Some axis when List.mem (role, axis) shifts ->
                    let n1, n2 = Grid.shift grid (z1, z2) ~axis ~by:1 in
                    if
                      not
                        (List.mem (role, axis)
                           (Schedule.shifts_after s ~step ~z1:n1 ~z2:n2))
                    then
                      Alcotest.failf "%s: sender (%d,%d) skips step %d"
                        (grid_name grid) n1 n2 step;
                    Schedule.block_at s role ~step ~z1:n1 ~z2:n2
                  | _ -> Schedule.block_at s role ~step ~z1 ~z2
                in
                if now <> expected then
                  Alcotest.failf "%s: block lands wrong at (%d,%d) step %d"
                    (grid_name grid) z1 z2 (step + 1))
              roles)
          (Grid.coords grid)
      done)

(* Each rotated role shifts [Grid.rotation_steps] times along its axis,
   or one fewer where the final shift is elided; the fixed role never. *)
let test_schedule_shift_counts () =
  for_all_schedules (fun grid v s ->
      List.iter
        (fun (z1, z2) ->
          let count role =
            let c = ref 0 in
            for step = 0 to Schedule.steps s - 1 do
              if
                List.exists
                  (fun (r, _) -> Variant.role_equal r role)
                  (Schedule.shifts_after s ~step ~z1 ~z2)
              then incr c
            done;
            !c
          in
          Alcotest.(check int) "fixed role stays" 0
            (count (Variant.fixed_role v));
          List.iter
            (fun (role, axis) ->
              let rs = Grid.rotation_steps grid ~axis and c = count role in
              if c < rs - 1 || c > rs then
                Alcotest.failf "%s: %d shifts along axis %d, rotation_steps %d"
                  (grid_name grid) c axis rs)
            (Variant.rotated v))
        (Grid.coords grid))

let qcheck_schedule_permutation =
  qtest ~count:60 "block placements are permutations"
    G.(tup4 (int_range 1 5) (int_range 1 5) (int_range 0 23) (int_range 0 24))
    (fun (rows, cols, vidx, step) ->
      let vs = all_variants () in
      let v = List.nth vs (vidx mod List.length vs) in
      let grid = Grid.create_rect_exn ~rows ~cols in
      let s = Schedule.make v grid in
      let step = step mod Schedule.steps s in
      List.for_all (fun role -> is_permutation grid s role ~step) roles)

let suite =
  [
    ( "cannon.contraction",
      [
        case "index classification" test_classification;
        case "flops" test_flops;
        case "Hadamard shapes rejected" test_rejects_hadamard;
        case "empty I/J rejected" test_rejects_empty_sets;
        case "formula classification" test_of_formula_rejections;
        case "from tree nodes" test_of_tree_node;
      ] );
    ( "cannon.variant",
      [
        case "enumeration = 3*NI*NJ*NK" test_variant_enumeration;
        case "distribution contents per role" test_variant_dists_consistent;
        case "construction validation" test_variant_make_validation;
      ] );
    ( "cannon.schedule",
      [
        case "placements are permutations" test_schedule_permutation;
        case "local multiplies are coherent" test_schedule_coherence;
        case "covers every ω element once per rank"
          test_schedule_covers_omega_once;
        case "covers every block product once"
          test_schedule_covers_block_products;
        case "square grids keep the classic skew" test_schedule_square_skew;
        case "step count per grid shape" test_schedule_step_counts;
        case "shifted blocks land where the next step says"
          test_schedule_landing;
        case "shift counts match rotation steps" test_schedule_shift_counts;
        qcheck_schedule_permutation;
      ] );
  ]
