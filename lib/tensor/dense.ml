open! Import
module A1 = Bigarray.Array1

type buf = (float, Bigarray.float64_elt, Bigarray.c_layout) A1.t

type t = {
  labels : Index.t array;
  ext : int array;
  strides : int array;
  data : buf;
}

let fail fmt = Tce_error.failf fmt

let alloc n : buf =
  let b = A1.create Bigarray.Float64 Bigarray.C_layout n in
  A1.fill b 0.0;
  b

let check_dims dims =
  let labels = List.map fst dims in
  if not (Index.distinct labels) then
    fail "Dense: dimension labels must be distinct";
  List.iter
    (fun (i, n) ->
      if n <= 0 then
        fail "Dense: extent of %s must be positive, got %d" (Index.name i) n)
    dims

let create dims =
  check_dims dims;
  let labels = Array.of_list (List.map fst dims) in
  let ext = Array.of_list (List.map snd dims) in
  {
    labels;
    ext;
    strides = Coords.strides ext;
    data = alloc (Coords.total ext);
  }

let scalar v =
  let t = create [] in
  A1.unsafe_set t.data 0 v;
  t

let dims t =
  Array.to_list (Array.map2 (fun l e -> (l, e)) t.labels t.ext)

let labels t = Array.to_list t.labels
let rank t = Array.length t.labels
let size t = A1.dim t.data

(* Flat-buffer view: the live storage, for the kernel layer. *)
let buf t = t.data
let unsafe_get t o = A1.unsafe_get t.data o
let unsafe_set t o v = A1.unsafe_set t.data o v

let to_floats t =
  let n = size t in
  Array.init n (fun i -> A1.unsafe_get t.data i)

let pos_of_label t i =
  let rec go d =
    if d >= Array.length t.labels then raise Not_found
    else if Index.equal t.labels.(d) i then d
    else go (d + 1)
  in
  go 0

let extent_of t i = t.ext.(pos_of_label t i)
let has_label t i = Array.exists (Index.equal i) t.labels
let stride_of t i = t.strides.(pos_of_label t i)

let coord_of_map t m =
  let n = Array.length t.labels in
  if Index.Map.cardinal m <> n then
    fail "Dense: coordinate must bind exactly the tensor's labels";
  let coord = Array.make n 0 in
  for d = 0 to n - 1 do
    match Index.Map.find_opt t.labels.(d) m with
    | None ->
      fail "Dense: coordinate missing label %s" (Index.name t.labels.(d))
    | Some c ->
      if c < 0 || c >= t.ext.(d) then
        fail "Dense: position %d out of range for %s (extent %d)" c
          (Index.name t.labels.(d))
          t.ext.(d);
      coord.(d) <- c
  done;
  coord

let get t m = A1.get t.data (Coords.offset ~strides:t.strides (coord_of_map t m))

let set t m v =
  A1.set t.data (Coords.offset ~strides:t.strides (coord_of_map t m)) v

let add_at t m v =
  let o = Coords.offset ~strides:t.strides (coord_of_map t m) in
  A1.set t.data o (A1.get t.data o +. v)

let get_value t =
  if rank t <> 0 then fail "Dense.get_value: tensor is not a scalar";
  A1.get t.data 0

let fill t v = A1.fill t.data v

let copy t =
  let data = A1.create Bigarray.Float64 Bigarray.C_layout (size t) in
  A1.blit t.data data;
  { t with data }

let relabel t labels =
  if List.length labels <> Array.length t.labels then
    fail "Dense.relabel: expected %d labels, got %d" (Array.length t.labels)
      (List.length labels);
  let labels = Array.of_list labels in
  if not (Index.distinct (Array.to_list labels)) then
    fail "Dense.relabel: labels must be distinct";
  { (copy t) with labels }

let fill_random t rng =
  let data = t.data in
  for i = 0 to A1.dim data - 1 do
    A1.unsafe_set data i (Prng.float_range rng ~lo:(-1.0) ~hi:1.0)
  done

let map_of_coord t coord =
  let m = ref Index.Map.empty in
  Array.iteri (fun d l -> m := Index.Map.add l coord.(d) !m) t.labels;
  !m

let iteri t ~f =
  Coords.iter t.ext (fun coord ->
      f (map_of_coord t coord)
        (A1.get t.data (Coords.offset ~strides:t.strides coord)))

let init dims ~f =
  let t = create dims in
  Coords.iter t.ext (fun coord ->
      A1.set t.data
        (Coords.offset ~strides:t.strides coord)
        (f (map_of_coord t coord)));
  t

let same_shape a b = a.labels = b.labels && a.ext = b.ext

let map t ~f =
  let out = copy t in
  let d = out.data in
  for i = 0 to A1.dim d - 1 do
    A1.unsafe_set d i (f (A1.unsafe_get d i))
  done;
  out

let map2 a b ~f =
  if not (same_shape a b) then
    fail "Dense.map2: shapes differ (labels or storage order)";
  let da = a.data and db = b.data in
  let n = A1.dim da in
  let out = A1.create Bigarray.Float64 Bigarray.C_layout n in
  for i = 0 to n - 1 do
    A1.unsafe_set out i (f (A1.unsafe_get da i) (A1.unsafe_get db i))
  done;
  { a with data = out }

let frobenius t =
  let data = t.data in
  (* Accumulate in a float-array cell (unboxed stores). A local float
     [ref] would not box either: ocamlopt keeps a non-escaping ref
     unboxed even without flambda, and a 1 M-iteration float-ref sum of
     squares allocated no minor words on OCaml 5.1.1, with or without
     -g. *)
  let acc = Array.make 1 0.0 in
  for i = 0 to A1.dim data - 1 do
    let x = A1.unsafe_get data i in
    Array.unsafe_set acc 0 (Array.unsafe_get acc 0 +. (x *. x))
  done;
  sqrt acc.(0)

let bits_equal a b =
  a.labels = b.labels && a.ext = b.ext
  &&
  let da = a.data and db = b.data in
  let n = A1.dim da in
  let ok = ref true in
  for i = 0 to n - 1 do
    if
      not
        (Int64.equal
           (Int64.bits_of_float (A1.unsafe_get da i))
           (Int64.bits_of_float (A1.unsafe_get db i)))
    then ok := false
  done;
  !ok

(* Stride-walk copy engine: visit the row-major points of [ext], reading
   the source at [sbase] advanced by [sstr] per dimension while the
   destination advances sequentially (destination extents are exactly
   [ext] in storage order). The innermost dimension is a tight loop with
   unchecked accesses; no per-element allocation. *)
let walk_gather ~ext ~sstr ~sbase ~(src : buf) ~(dst : buf) =
  let n = Array.length ext in
  if n = 0 then A1.unsafe_set dst 0 (A1.unsafe_get src sbase)
  else begin
    let k = ref 0 in
    let rec go d soff =
      let e = Array.unsafe_get ext d in
      let s = Array.unsafe_get sstr d in
      if d = n - 1 then begin
        let base = !k in
        for i = 0 to e - 1 do
          A1.unsafe_set dst (base + i) (A1.unsafe_get src (soff + (i * s)))
        done;
        k := base + e
      end
      else
        for i = 0 to e - 1 do
          go (d + 1) (soff + (i * s))
        done
    in
    go 0 sbase
  end

(* Dual of {!walk_gather}: the source advances sequentially over [ext]
   while the destination is strided; [combine] merges into the target. *)
let walk_scatter ~ext ~dstr ~dbase ~(src : buf) ~(dst : buf) ~combine =
  let n = Array.length ext in
  if n = 0 then
    A1.unsafe_set dst dbase
      (combine (A1.unsafe_get dst dbase) (A1.unsafe_get src 0))
  else begin
    let k = ref 0 in
    let rec go d doff =
      let e = Array.unsafe_get ext d in
      let s = Array.unsafe_get dstr d in
      if d = n - 1 then begin
        let base = !k in
        for i = 0 to e - 1 do
          let o = doff + (i * s) in
          A1.unsafe_set dst o
            (combine (A1.unsafe_get dst o) (A1.unsafe_get src (base + i)))
        done;
        k := base + e
      end
      else
        for i = 0 to e - 1 do
          go (d + 1) (doff + (i * s))
        done
    in
    go 0 dbase
  end

let transpose t order =
  if
    List.length order <> rank t
    || not (List.for_all (has_label t) order)
    || not (Index.distinct order)
  then fail "Dense.transpose: order must be a permutation of labels";
  let out = create (List.map (fun i -> (i, extent_of t i)) order) in
  (* Source stride of each output dimension: walking the output row-major
     advances the source by these. *)
  let sstr = Array.map (fun l -> t.strides.(pos_of_label t l)) out.labels in
  walk_gather ~ext:out.ext ~sstr ~sbase:0 ~src:t.data ~dst:out.data;
  out

let slice t i pos =
  let d = pos_of_label t i in
  if pos < 0 || pos >= t.ext.(d) then
    fail "Dense.slice: position out of range";
  let keep = List.filter (fun (l, _) -> not (Index.equal l i)) (dims t) in
  let out = create keep in
  let sstr = Array.map (fun l -> t.strides.(pos_of_label t l)) out.labels in
  walk_gather ~ext:out.ext ~sstr
    ~sbase:(pos * t.strides.(d))
    ~src:t.data ~dst:out.data;
  out

let resolve_ranges t ranges =
  (* Per storage dimension, an (offset, length) window. *)
  List.iter
    (fun (l, _) ->
      if not (has_label t l) then
        fail "Dense.block: foreign label %s" (Index.name l))
    ranges;
  Array.mapi
    (fun d label ->
      match List.find_opt (fun (l, _) -> Index.equal l label) ranges with
      | None -> (0, t.ext.(d))
      | Some (_, (off, len)) ->
        if off < 0 || len <= 0 || off + len > t.ext.(d) then
          fail "Dense.block: bad range (%d,%d) for %s (extent %d)" off len
            (Index.name label) t.ext.(d);
        (off, len))
    t.labels

let block t ranges =
  let windows = resolve_ranges t ranges in
  let out =
    create
      (Array.to_list
         (Array.map2 (fun l (_, len) -> (l, len)) t.labels windows))
  in
  let sbase = ref 0 in
  Array.iteri (fun d (off, _) -> sbase := !sbase + (off * t.strides.(d))) windows;
  walk_gather ~ext:out.ext ~sstr:t.strides ~sbase:!sbase ~src:t.data
    ~dst:out.data;
  out

let write_block ~combine t offsets blk =
  if blk.labels <> t.labels then
    fail "Dense.set_block: block labels must match target labels and order";
  let dbase = ref 0 in
  Array.iteri
    (fun d label ->
      let o =
        match List.find_opt (fun (l, _) -> Index.equal l label) offsets with
        | None -> 0
        | Some (_, o) -> o
      in
      if o < 0 || o + blk.ext.(d) > t.ext.(d) then
        fail "Dense.set_block: block does not fit along %s" (Index.name label);
      dbase := !dbase + (o * t.strides.(d)))
    t.labels;
  walk_scatter ~ext:blk.ext ~dstr:t.strides ~dbase:!dbase ~src:blk.data
    ~dst:t.data ~combine

let set_block t offsets blk = write_block ~combine:(fun _ v -> v) t offsets blk
let add_block t offsets blk = write_block ~combine:( +. ) t offsets blk

let equal_approx ?(tol = 1e-9) a b =
  let la = List.sort Index.compare (labels a)
  and lb = List.sort Index.compare (labels b) in
  List.equal Index.equal la lb
  && List.for_all (fun i -> extent_of a i = extent_of b i) la
  &&
  let b' = if a.labels = b.labels then b else transpose b (labels a) in
  let ok = ref true in
  for k = 0 to size a - 1 do
    let va = A1.unsafe_get a.data k in
    let vb = A1.unsafe_get b'.data k in
    let scale = 1.0 +. Float.max (Float.abs va) (Float.abs vb) in
    if Float.abs (va -. vb) > tol *. scale then ok := false
  done;
  !ok
