open! Import

let err fmt = Format.kasprintf (fun s -> Error s) fmt

let find_step (plan : Plan.t) name =
  List.find_opt
    (fun (s : Plan.step) ->
      String.equal (Aref.name s.contraction.Contraction.out) name)
    plan.steps

let find_presum (plan : Plan.t) name =
  List.find_opt
    (fun (p : Plan.presum) -> String.equal (Aref.name p.out) name)
    plan.presums

let fused_of_role (s : Plan.step) = function
  | Variant.Out -> s.fusion_out
  | Variant.Left -> s.fusion_left
  | Variant.Right -> s.fusion_right

(* The Cannon stanza for one contraction step, one comment line per
   element, each prefixed with the current indentation. *)
let pp_stanza ppf ~pad ext side (s : Plan.step) =
  let v = s.variant in
  Format.fprintf ppf "%s# cannon: triple (%a,%a,%a), rotate along %a@," pad
    Index.pp v.Variant.i Index.pp v.Variant.j Index.pp v.Variant.k Index.pp
    (Variant.rot_index v);
  Format.fprintf ppf "%s#   distributions: out %a, left %a, right %a@," pad
    Dist.pp
    (Variant.dist_of v Variant.Out)
    Dist.pp
    (Variant.dist_of v Variant.Left)
    Dist.pp
    (Variant.dist_of v Variant.Right);
  List.iter
    (fun (rd : Plan.redist) ->
      Format.fprintf ppf "%s#   redistribute %a (%a): %a -> %a  (%.1f s)@,"
        pad Variant.pp_role rd.role Aref.pp
        (Variant.aref_of v rd.role)
        Dist.pp rd.from_dist Dist.pp rd.to_dist rd.cost)
    s.redists;
  List.iter
    (fun ((role : Variant.role), axis) ->
      let aref = Variant.aref_of v role in
      let alpha = Variant.dist_of v role in
      let fused = fused_of_role s role in
      let dims = Aref.indices aref in
      let words =
        Eqs.dist_size_rect ext ~rows:side ~cols:side ~alpha ~fused ~dims
      in
      let factor =
        Eqs.msg_factor_rect ext ~rows:side ~cols:side ~alpha ~fused ~dims
      in
      let cost =
        match
          List.find_opt (fun (r, _) -> Variant.role_equal r role) s.rotations
        with
        | Some (_, c) -> c
        | None -> 0.0
      in
      Format.fprintf ppf
        "%s#   rotate %a %a along axis %d: %d x %d steps x %a  (%.1f s)@,"
        pad Variant.pp_role role Aref.pp aref axis factor side
        Units.pp_bytes_si
        (Units.bytes_of_words words)
        cost)
    (Variant.rotated v);
  Format.fprintf ppf "%s#   fixed: %a %a@," pad Variant.pp_role
    (Variant.fixed_role v) Aref.pp
    (Variant.aref_of v (Variant.fixed_role v))

let pp_term ppf (t : Loopnest.term) =
  if t.Loopnest.indices = [] then Format.pp_print_string ppf t.Loopnest.array
  else
    Format.fprintf ppf "%s[%a]" t.Loopnest.array Index.pp_list
      t.Loopnest.indices

let emit ext tree (plan : Plan.t) =
  let fusions name =
    match find_step plan name with
    | Some s -> s.fusion_out
    | None -> (
      match find_presum plan name with
      | Some p -> p.fused
      | None -> Index.Set.empty)
  in
  if not (Grid.is_square plan.Plan.grid) then
    err
      "parallel code generation: SPMD pseudocode is emitted for square \
       grids only (got %dx%d)"
      (Grid.rows plan.Plan.grid) (Grid.cols plan.Plan.grid)
  else
  match Loopnest.generate tree ~fusions with
  | Error msg -> err "parallel code generation: %s" msg
  | Ok prog ->
    let side = Grid.side plan.grid in
    let buf = Buffer.create 4096 in
    let ppf = Format.formatter_of_buffer buf in
    Format.fprintf ppf "@[<v># SPMD program: %a, every statement runs on \
                        each processor's blocks@,"
      Grid.pp plan.grid;
    List.iter
      (fun ((t : Loopnest.term), kind) ->
        match kind with
        | Loopnest.Temporary ->
          Format.fprintf ppf "# temporary %a@," pp_term t
        | Loopnest.Input | Loopnest.Output -> ())
      prog.Loopnest.decls;
    let pad depth = String.make (2 * depth) ' ' in
    let rec go depth stmt =
      match stmt with
      | Loopnest.Loop (i, body) -> begin
        let rec collect acc s =
          match s with
          | Loopnest.Loop (j, [ (Loopnest.Loop _ as inner) ]) ->
            collect (j :: acc) inner
          | Loopnest.Loop (j, body) -> (List.rev (j :: acc), body)
          | s -> (List.rev acc, [ s ])
        in
        let band, innermost = collect [] (Loopnest.Loop (i, body)) in
        Format.fprintf ppf "%sfor %a@," (pad depth) Index.pp_list band;
        List.iter (go (depth + 1)) innermost
      end
      | Loopnest.Zero t ->
        Format.fprintf ppf "%s%a = 0@," (pad depth) pp_term t
      | Loopnest.Update { lhs; factors } -> begin
        (match find_step plan lhs.Loopnest.array with
        | Some s -> pp_stanza ppf ~pad:(pad depth) ext side s
        | None -> (
          match find_presum plan lhs.Loopnest.array with
          | Some _ ->
            Format.fprintf ppf "%s# local reduction (no communication)@,"
              (pad depth)
          | None -> ()));
        Format.fprintf ppf "%s%a += %a@," (pad depth) pp_term lhs
          (Format.pp_print_list
             ~pp_sep:(fun ppf () -> Format.fprintf ppf " * ")
             pp_term)
          factors
      end
    in
    List.iter (go 0) prog.Loopnest.body;
    Format.fprintf ppf "@]@?";
    Ok (Buffer.contents buf)
