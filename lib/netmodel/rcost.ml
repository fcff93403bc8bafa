open! Import

type t = { rows : int; cols : int; axis1 : Interp.t; axis2 : Interp.t }

let rows t = t.rows
let cols t = t.cols
let is_square t = t.rows = t.cols

let check_samples samples =
  let samples = List.sort_uniq compare samples in
  if samples = [] then invalid_arg "Rcost.characterize: no sample sizes";
  if List.exists (fun s -> s <= 0) samples then
    invalid_arg "Rcost.characterize: sample sizes must be positive";
  samples

let tables ~samples ~measure =
  let table axis =
    Interp.of_points_exn
      (List.map
         (fun words -> (float_of_int words, measure ~axis ~words))
         samples)
  in
  (table 1, table 2)

let characterize ~side ~samples ~measure =
  if side <= 0 then invalid_arg "Rcost.characterize: side must be positive";
  let samples = check_samples samples in
  let axis1, axis2 = tables ~samples ~measure in
  { rows = side; cols = side; axis1; axis2 }

let characterize_rect ~rows ~cols ~samples ~measure =
  if rows <= 0 || cols <= 0 then
    invalid_arg "Rcost.characterize_rect: grid shape must be positive";
  let samples = check_samples samples in
  let axis1, axis2 = tables ~samples ~measure in
  { rows; cols; axis1; axis2 }

let default_samples =
  let ladder =
    List.init 15 (fun k -> 1024 * Ints.pow 2 k) (* 1 Kword .. 16 Mwords *)
  in
  let knots =
    [
      30_720; 61_440; 491_520; 983_040; 3_686_400; 6_912_000; 7_372_800;
      14_745_600;
    ]
  in
  List.sort_uniq compare (ladder @ knots)

let analytic_measure params ~side ~axis ~words =
  if axis <> 1 && axis <> 2 then
    invalid_arg "Rcost.analytic_measure: axis must be 1 or 2";
  Params.rotation_time params ~side ~bytes:(Units.bytes_of_words words)

let of_params params ~side =
  characterize ~side ~samples:default_samples
    ~measure:(analytic_measure params ~side)

(* A rotation along [axis] performs [Grid.rotation_steps] hops, each over
   the axis's link class. On a uniform topology and a square grid the
   steps count is [side] and both classes are [Params.step_time], so the
   measure is float-identical to [analytic_measure]. *)
let topology_measure topo grid ~axis ~words =
  if axis <> 1 && axis <> 2 then
    invalid_arg "Rcost.topology_measure: axis must be 1 or 2";
  let steps = Grid.rotation_steps grid ~axis in
  let link = Topology.axis_link topo grid ~axis in
  float_of_int steps
  *. Topology.step_time topo ~link ~bytes:(Units.bytes_of_words words)

let of_topology topo grid =
  characterize_rect ~rows:(Grid.rows grid) ~cols:(Grid.cols grid)
    ~samples:default_samples ~measure:(topology_measure topo grid)

let query t ~axis ~words =
  if words < 0 then invalid_arg "Rcost.query: negative size";
  if words = 0 then 0.0
  else
    let table =
      match axis with
      | 1 -> t.axis1
      | 2 -> t.axis2
      | _ -> invalid_arg "Rcost.query: axis must be 1 or 2"
    in
    Float.max 0.0 (Interp.eval table (float_of_int words))

(* On-disk format (v1 for square characterizations, unchanged from
   before rectangular grids existed; v2 carries the shape):
     rcost-characterization v1        rcost-characterization v2
     side <n>                         shape <rows> <cols>
     axis 1                           axis 1
     <words> <seconds>                ...
     ...
     axis 2
     ... *)

let save t ~path =
  try
    Out_channel.with_open_text path (fun oc ->
        let pr fmt = Printf.fprintf oc fmt in
        if is_square t then begin
          pr "rcost-characterization v1\n";
          pr "side %d\n" t.rows
        end
        else begin
          pr "rcost-characterization v2\n";
          pr "shape %d %d\n" t.rows t.cols
        end;
        List.iter
          (fun (axis, table) ->
            pr "axis %d\n" axis;
            List.iter
              (fun (w, s) -> pr "%d %.9g\n" (int_of_float w) s)
              (Interp.points table))
          [ (1, t.axis1); (2, t.axis2) ]);
    Ok ()
  with Sys_error msg -> Error msg

let load ~path =
  let ( let* ) = Result.bind in
  let parse lines =
    let* shape =
      match lines with
      | "rcost-characterization v1" :: side_line :: _ -> begin
        match String.split_on_char ' ' side_line with
        | [ "side"; n ] -> (
          match int_of_string_opt n with
          | Some n when n > 0 -> Ok (n, n)
          | _ -> Error "rcost file: bad side")
        | _ -> Error "rcost file: missing side line"
      end
      | "rcost-characterization v2" :: shape_line :: _ -> begin
        match String.split_on_char ' ' shape_line with
        | [ "shape"; r; c ] -> (
          match (int_of_string_opt r, int_of_string_opt c) with
          | Some r, Some c when r > 0 && c > 0 -> Ok (r, c)
          | _ -> Error "rcost file: bad shape")
        | _ -> Error "rcost file: missing shape line"
      end
      | _ :: _ :: _ -> Error "rcost file: bad header"
      | _ -> Error "rcost file: truncated"
    in
    let rows, cols = shape in
    let rest = List.filteri (fun i _ -> i >= 2) lines in
    let rec split_axes current acc1 acc2 = function
      | [] -> Ok (List.rev acc1, List.rev acc2)
      | "axis 1" :: rest -> split_axes 1 acc1 acc2 rest
      | "axis 2" :: rest -> split_axes 2 acc1 acc2 rest
      | "" :: rest -> split_axes current acc1 acc2 rest
      | line :: rest -> begin
        match String.split_on_char ' ' line with
        | [ w; s ] -> begin
          match (int_of_string_opt w, float_of_string_opt s) with
          | Some w, Some s when current = 1 ->
            split_axes current ((float_of_int w, s) :: acc1) acc2 rest
          | Some w, Some s when current = 2 ->
            split_axes current acc1 ((float_of_int w, s) :: acc2) rest
          | _ -> Error ("rcost file: bad sample line: " ^ line)
        end
        | _ -> Error ("rcost file: bad line: " ^ line)
      end
    in
    let* pts1, pts2 = split_axes 0 [] [] rest in
    let* axis1 = Interp.of_points pts1 in
    let* axis2 = Interp.of_points pts2 in
    Ok { rows; cols; axis1; axis2 }
  in
  match In_channel.with_open_text path In_channel.input_all with
  | text -> parse (String.split_on_char '\n' text)
  | exception Sys_error msg -> Error msg

let pp ppf t =
  if is_square t then
    Format.fprintf ppf
      "rcost characterization: side=%d, %d+%d samples, rot(1Mword)=%.3fs"
      t.rows (Interp.size t.axis1) (Interp.size t.axis2)
      (query t ~axis:1 ~words:1_048_576)
  else
    Format.fprintf ppf
      "rcost characterization: shape=%dx%d, %d+%d samples, \
       rot(1Mword)=%.3fs/%.3fs"
      t.rows t.cols (Interp.size t.axis1) (Interp.size t.axis2)
      (query t ~axis:1 ~words:1_048_576)
      (query t ~axis:2 ~words:1_048_576)

let fingerprint t =
  let b = Buffer.create 256 in
  if is_square t then
    Buffer.add_string b (Printf.sprintf "rcost:side=%d" t.rows)
  else
    Buffer.add_string b (Printf.sprintf "rcost:shape=%dx%d" t.rows t.cols);
  List.iter
    (fun (axis, table) ->
      Buffer.add_string b (Printf.sprintf ";a%d=" axis);
      List.iter
        (fun (w, s) -> Buffer.add_string b (Printf.sprintf "%.17g:%.17g," w s))
        (Interp.points table))
    [ (1, t.axis1); (2, t.axis2) ];
  Buffer.contents b
