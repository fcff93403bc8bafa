open! Import

type t = { inputs : Aref.t list; formulas : Formula.t list }

let err fmt = Format.kasprintf (fun s -> Error s) fmt

let validate ~inputs formulas =
  let ( let* ) = Result.bind in
  let* () =
    if formulas = [] then Error "sequence must contain at least one formula"
    else Ok ()
  in
  let names = List.map Aref.name inputs in
  let* () =
    if List.length (List.sort_uniq String.compare names) <> List.length names
    then Error "duplicate input array name"
    else Ok ()
  in
  (* [defined] maps array name to its index set (inputs + earlier lhs). *)
  let table = Hashtbl.create 16 in
  List.iter (fun a -> Hashtbl.replace table (Aref.name a) (Aref.index_set a)) inputs;
  let check_operand f op =
    match Hashtbl.find_opt table (Aref.name op) with
    | None ->
      err "formula %a references undefined array %s" Formula.pp f
        (Aref.name op)
    | Some idxset ->
      if Index.Set.equal idxset (Aref.index_set op) then Ok ()
      else
        err "formula %a references %s with indices {%a}, defined with {%a}"
          Formula.pp f (Aref.name op) Index.pp_list (Aref.indices op)
          Index.pp_list (Index.Set.elements idxset)
  in
  let rec go = function
    | [] -> Ok ()
    | f :: rest ->
      let* () = Formula.well_formed f in
      let* () =
        List.fold_left
          (fun acc op -> Result.bind acc (fun () -> check_operand f op))
          (Ok ()) (Formula.operands f)
      in
      let lhs = Formula.lhs f in
      let* () =
        if Hashtbl.mem table (Aref.name lhs) then
          err "array %s defined twice" (Aref.name lhs)
        else Ok ()
      in
      Hashtbl.replace table (Aref.name lhs) (Aref.index_set lhs);
      go rest
  in
  go formulas

let create ~inputs formulas =
  Result.map (fun () -> { inputs; formulas }) (validate ~inputs formulas)

let create_exn ~inputs formulas =
  match create ~inputs formulas with
  | Ok t -> t
  | Error msg -> invalid_arg ("Sequence.create_exn: " ^ msg)

let inputs t = t.inputs
let formulas t = t.formulas

let output t =
  match List.rev t.formulas with
  | last :: _ -> Formula.lhs last
  | [] -> assert false (* ruled out by validation *)

let intermediates t =
  match List.rev t.formulas with
  | _ :: earlier -> List.rev_map Formula.lhs earlier
  | [] -> assert false

let find_def t name =
  List.find_opt (fun f -> String.equal (Aref.name (Formula.lhs f)) name) t.formulas

let all_indices t =
  let of_aref a = Aref.index_set a in
  let of_formula f =
    List.fold_left
      (fun acc a -> Index.Set.union acc (of_aref a))
      (Index.Set.union (of_aref (Formula.lhs f))
         (Index.set_of_list (Formula.sum_indices f)))
      (Formula.operands f)
  in
  List.fold_left
    (fun acc f -> Index.Set.union acc (of_formula f))
    (List.fold_left (fun acc a -> Index.Set.union acc (of_aref a)) Index.Set.empty t.inputs)
    t.formulas

let lookup env name =
  match List.assoc_opt name env with
  | Some d -> d
  | None -> invalid_arg ("Sequence.eval: missing tensor " ^ name)

let check_input ext aref dense =
  let expect = List.map (fun i -> (i, Extents.extent ext i)) (Aref.indices aref) in
  let got = Dense.dims dense in
  let sort = List.sort (fun (a, _) (b, _) -> Index.compare a b) in
  if sort expect <> sort got then
    invalid_arg
      (Format.asprintf "Sequence.eval: input %s has shape %a, expected %a"
         (Aref.name aref)
         (Format.pp_print_list (fun ppf (i, n) ->
              Format.fprintf ppf "%a:%d " Index.pp i n))
         got
         (Format.pp_print_list (fun ppf (i, n) ->
              Format.fprintf ppf "%a:%d " Index.pp i n))
         expect)

let eval_all ext ~inputs t =
  List.iter2
    (fun aref (name, dense) ->
      if not (String.equal (Aref.name aref) name) then
        invalid_arg "Sequence.eval: inputs must be given in declaration order";
      check_input ext aref dense)
    t.inputs inputs;
  let step env f =
    let out_labels = Aref.indices (Formula.lhs f) in
    let value =
      match Formula.rhs f with
      | Formula.Mult (x, y) | Formula.Contract (_, x, y) ->
        Einsum.contract2 ~out:out_labels
          (lookup env (Aref.name x))
          (lookup env (Aref.name y))
      | Formula.Sum (k, x) ->
        let s = Einsum.sum_over (lookup env (Aref.name x)) k in
        if Dense.labels s = out_labels then s else Dense.transpose s out_labels
    in
    env @ [ (Aref.name (Formula.lhs f), value) ]
  in
  let env = List.fold_left step inputs t.formulas in
  (* Return only the produced arrays, in definition order. *)
  List.filteri (fun i _ -> i >= List.length inputs) env

let eval ext ~inputs t =
  match List.rev (eval_all ext ~inputs t) with
  | (_, result) :: _ -> result
  | [] -> assert false

let random_inputs ext ~seed t =
  let rng = Prng.create ~seed in
  List.map
    (fun aref ->
      let dense =
        Dense.create
          (List.map (fun i -> (i, Extents.extent ext i)) (Aref.indices aref))
      in
      Dense.fill_random dense (Prng.split rng);
      (Aref.name aref, dense))
    t.inputs

let pp ppf t =
  Format.pp_print_list
    ~pp_sep:(fun ppf () -> Format.pp_print_newline ppf ())
    Formula.pp ppf t.formulas
