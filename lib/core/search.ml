open! Import

type fusion_mode =
  | Enumerate
  | No_fusion
  | Fixed of (string * Index.Set.t) list

type config = {
  grid : Grid.t;
  params : Params.t;
  rcost : Rcost.t;
  mem_limit_bytes : float option;
  redist_factor : float;
  fusion_mode : fusion_mode;
  allow_distributed_fusion : bool;
}

let default_config ?mem_limit_bytes ?(redist_factor = 2.0)
    ?(fusion_mode = Enumerate) ?(allow_distributed_fusion = false) ~grid
    ~params ~rcost () =
  {
    grid;
    params;
    rcost;
    mem_limit_bytes;
    redist_factor;
    fusion_mode;
    allow_distributed_fusion;
  }

let mem_limit cfg =
  Option.value cfg.mem_limit_bytes
    ~default:cfg.params.Params.mem_per_node_bytes

let fits cfg mem = Memacct.node_bytes cfg.params mem <= mem_limit cfg

(* Unordered distribution content, for matching producer against consumer
   (the pair order is an orientation artifact; see DESIGN.md). *)
let content_key dist =
  String.concat "," (List.sort compare (List.map Index.name (Dist.indices dist)))

let same_content a b = String.equal (content_key a) (content_key b)

type solution = {
  prod_dist : Dist.t;
  fused : Index.Set.t;
  cost : float;
  mem : Memacct.t;
  steps : Plan.step list;
  presums : Plan.presum list;
}

type child_case =
  | Cleaf of Aref.t
  | Cpresum of { out : Aref.t; sum : Index.t list; source : Aref.t }
      (** a unary summation of an input, evaluated processor-locally *)
  | Csol of solution

let child_cost = function Cleaf _ | Cpresum _ -> 0.0 | Csol s -> s.cost

let child_mem = function
  | Cleaf _ | Cpresum _ -> Memacct.empty
  | Csol s -> s.mem

let child_steps = function Cleaf _ | Cpresum _ -> [] | Csol s -> s.steps

let child_presums = function
  | Cleaf _ | Cpresum _ -> []
  | Csol s -> s.presums

(* [cap]: only consider fused sets of at most that many indices — the
   greedy seed's truncation of the 2^|fusible| per-edge candidate space
   (∅ and small sets carry most feasible plans; the exact search keeps
   [None] = everything). *)
let fusion_candidates ?cap cfg ~child ~parent =
  let fusible = Fusionset.fusible ~child ~parent in
  let truncate cands =
    match cap with
    | None -> cands
    | Some c -> List.filter (fun s -> Index.Set.cardinal s <= c) cands
  in
  match (cfg.fusion_mode, child) with
  | Enumerate, _ -> truncate (Fusionset.candidates ~child ~parent)
  | No_fusion, _ -> [ Index.Set.empty ]
  | Fixed _, Tree.Leaf _ ->
    (* Fixed assignments pin intermediate storage; a leaf edge's fusion
       only slices its communication and stays free. *)
    truncate (Fusionset.candidates ~child ~parent)
  | Fixed assignment, _ ->
    let wanted =
      Option.value ~default:Index.Set.empty
        (List.assoc_opt (Tree.name child) assignment)
    in
    [ Index.Set.inter wanted fusible ]

(* Consumption of a child in distribution [cons] when it was produced in
   [prod]: free when the contents agree; otherwise a redistribution, whose
   legality under fusion is the paper's constraint (iii) (the fused loop
   ranges must agree at both ends), costed per fused iteration. *)
let redistribution cfg ext ~variant ~role ~fused ~prod =
  let cons = Variant.dist_of variant role in
  if same_content prod cons then Ok None
  else if not (Fusionset.dist_compatible ~fused ~prod ~cons) then
    Error `Illegal
  else begin
    let rows = Grid.rows cfg.grid and cols = Grid.cols cfg.grid in
    let dims = Aref.indices (Variant.aref_of variant role) in
    let words = Eqs.dist_size_rect ext ~rows ~cols ~alpha:cons ~fused ~dims in
    let factor =
      Eqs.msg_factor_rect ext ~rows ~cols ~alpha:cons ~fused ~dims
    in
    let cost =
      cfg.redist_factor *. float_of_int factor
      *. Rcost.query cfg.rcost ~axis:1 ~words
    in
    Ok (Some { Plan.role; from_dist = prod; to_dist = cons; cost })
  end

(* Equal-cost plans are common (the paper notes "any 2 arrays can be
   rotated for the same cost"); prefer rotating inputs over outputs — a
   rotated output ends displaced, so keeping it fixed is the tidier plan
   and matches the paper's choices. *)
let out_rotations steps =
  List.fold_left
    (fun acc (s : Plan.step) ->
      acc
      + List.length
          (List.filter
             (fun (r, _) -> Variant.role_equal r Variant.Out)
             s.rotations))
    0 steps

let better a b =
  match Float.compare a.cost b.cost with
  | 0 -> compare (out_rotations a.steps) (out_rotations b.steps)
  | c -> c

let fused_key fused =
  String.concat "," (List.map Index.name (Index.Set.elements fused))

let orient_key dist =
  String.concat "," (List.map Index.name (Dist.indices dist))

(* Pareto pruning within (production distribution content, fusion) groups:
   the paper's "inferior solution" rule. A solution is dominated when
   another solution of its group is no worse on (cost, node bytes) and
   strictly better on cost, bytes or output rotations. Exact ties beyond
   that are broken by an explicit deterministic key — the oriented
   production distribution (the pair order the content key deliberately
   erases), then enumeration order — so exactly one of a set of
   duplicates survives.

   The survivors are therefore exactly one solution per Pareto-minimal
   (cost, bytes) point of the group: the least under (output rotations,
   oriented key, enumeration order) of the solutions at that point. A
   sort of the group by (cost, bytes, rotations, oriented key, order)
   finds them in one sweep: a solution survives when its bytes are below
   those of every solution sorted before it (an earlier one has lower
   cost, or equal cost and fewer bytes, or the same point and a smaller
   tie-break). Survivors are then read off in the group's own order. The
   group collection order and the within-group order are fixed by the
   insertion sequence alone, so the output list — not just the surviving
   set — is deterministic. *)
let prune_solutions cfg sols =
  let annotated =
    List.mapi
      (fun ord s ->
        ( s,
          Memacct.node_bytes cfg.params s.mem,
          out_rotations s.steps,
          orient_key s.prod_dist,
          ord ))
      sols
  in
  let groups = Hashtbl.create 32 in
  List.iter
    (fun ((s, _, _, _, _) as a) ->
      let k = (content_key s.prod_dist, fused_key s.fused) in
      Hashtbl.replace groups k
        (a :: Option.value ~default:[] (Hashtbl.find_opt groups k)))
    annotated;
  let by_point (s, bytes, rots, okey, ord) (s', bytes', rots', okey', ord') =
    match Float.compare s.cost s'.cost with
    | 0 -> (
      match Float.compare bytes bytes' with
      | 0 -> (
        match Int.compare rots rots' with
        | 0 -> (
          match String.compare okey okey' with
          | 0 -> Int.compare ord ord'
          | c -> c)
        | c -> c)
      | c -> c)
    | c -> c
  in
  let filter_group group =
    let members = Array.of_list group in
    let sorted = Array.init (Array.length members) Fun.id in
    Array.sort (fun x y -> by_point members.(x) members.(y)) sorted;
    let survives = Array.make (Array.length members) false in
    let least_bytes = ref None in
    Array.iter
      (fun x ->
        let _, bytes, _, _, _ = members.(x) in
        match !least_bytes with
        | Some b when bytes >= b -> ()
        | _ ->
          survives.(x) <- true;
          least_bytes := Some bytes)
      sorted;
    List.filteri (fun x _ -> survives.(x)) group
    |> List.map (fun (s, _, _, _, _) -> s)
  in
  (* Each filtered group goes in front of the previously visited ones, the
     historical output order byte for byte. *)
  Hashtbl.fold (fun _ group acc -> filter_group group @ acc) groups []

(* Anytime narrowing: keep the [k] best survivors under a total order —
   cost, then node bytes, then output rotations, then the oriented
   production-distribution key, then the fused-set key, then enumeration
   order. The order is total (the final component never ties), so the cut
   is deterministic. *)
let beam_filter cfg beam sols =
  match beam with
  | Some k when List.length sols > k ->
    let annotated =
      List.mapi
        (fun ord s ->
          ( s,
            ( s.cost,
              Memacct.node_bytes cfg.params s.mem,
              out_rotations s.steps,
              orient_key s.prod_dist,
              fused_key s.fused,
              ord ) ))
        sols
    in
    let cmp (_, a) (_, b) = compare a b in
    List.sort cmp annotated |> Listx.take k |> List.map fst
  | _ -> sols

let err fmt = Format.kasprintf (fun s -> Error s) fmt

(* --- Memoization ------------------------------------------------------- *)

module SMap = Map.Make (String)

(* One solve's memo table: memo key → (the solved subtree, its
   solutions). *)
type memo = (string, Tree.t * solution list) Hashtbl.t

(* The content fingerprint of a subtree: structure, index lists and leaf
   names, with intermediate names erased (α-renaming) so that two
   occurrences of the same subcomputation under different output names
   share their solutions. Under [Fixed] fusion the intermediate names are
   semantic (the assignment is keyed on them), so they stay in. *)
let fingerprint ~with_names node =
  let buf = Buffer.create 128 in
  let str = Buffer.add_string buf in
  let idxs l =
    List.iter
      (fun i ->
        str (Index.name i);
        Buffer.add_char buf ',')
      l
  in
  let inner a =
    if with_names then str (Aref.name a);
    Buffer.add_char buf '[';
    idxs (Aref.indices a);
    Buffer.add_char buf ']'
  in
  let rec go = function
    | Tree.Leaf a ->
      str "L";
      str (Aref.name a);
      Buffer.add_char buf '[';
      idxs (Aref.indices a);
      Buffer.add_char buf ']'
    | Tree.Sum (a, k, c) ->
      str "S";
      inner a;
      Buffer.add_char buf '{';
      idxs k;
      str "}(";
      go c;
      Buffer.add_char buf ')'
    | Tree.Mult (a, l, r) ->
      str "M";
      inner a;
      Buffer.add_char buf '(';
      go l;
      str ")(";
      go r;
      Buffer.add_char buf ')'
    | Tree.Contract (a, k, l, r) ->
      str "C";
      inner a;
      Buffer.add_char buf '{';
      idxs k;
      str "}(";
      go l;
      str ")(";
      go r;
      Buffer.add_char buf ')'
  in
  go node;
  Buffer.contents buf

let candidates_key cands =
  String.concat "|" (List.map fused_key cands)

let memo_key cfg node cands =
  let with_names =
    match cfg.fusion_mode with Fixed _ -> true | Enumerate | No_fusion -> false
  in
  fingerprint ~with_names node ^ "#" ^ candidates_key cands

(* Rename map from the cached subtree's intermediate names to the current
   one's. The trees share a fingerprint, so they align node for node and
   their leaves carry identical names. Returns [None] in the pathological
   case where a leaf name collides with a cached intermediate name (the
   by-name rewrite would then touch the leaf too) — the caller falls back
   to recomputing. *)
let alpha_map ~cached ~current =
  let add a b acc =
    if String.equal (Aref.name a) (Aref.name b) then acc
    else SMap.add (Aref.name a) (Aref.name b) acc
  in
  let rec go cached current acc =
    match (cached, current) with
    | Tree.Leaf _, Tree.Leaf _ -> acc
    | Tree.Sum (a, _, c), Tree.Sum (b, _, c') -> go c c' (add a b acc)
    | Tree.Mult (a, l, r), Tree.Mult (b, l', r')
    | Tree.Contract (a, _, l, r), Tree.Contract (b, _, l', r') ->
      go r r' (go l l' (add a b acc))
    | _ -> acc (* unreachable: the fingerprints matched *)
  in
  let map = go cached current SMap.empty in
  let rec leaf_clash = function
    | Tree.Leaf a -> SMap.mem (Aref.name a) map
    | Tree.Sum (_, _, c) -> leaf_clash c
    | Tree.Mult (_, l, r) | Tree.Contract (_, _, l, r) ->
      leaf_clash l || leaf_clash r
  in
  if leaf_clash cached then None else Some map

let rename_bug what =
  Tce_error.raise_err
    (Tce_error.errorf "Search memo: renaming a cached %s failed (bug)" what)

let rename_aref m a =
  match SMap.find_opt (Aref.name a) m with
  | Some fresh -> Aref.rename a fresh
  | None -> a

let rename_contraction m (c : Contraction.t) =
  match
    Contraction.make ~out:(rename_aref m c.Contraction.out)
      ~left:(rename_aref m c.Contraction.left)
      ~right:(rename_aref m c.Contraction.right)
      ~sum:c.Contraction.k_set
  with
  | Ok c -> c
  | Error _ -> rename_bug "contraction"

let rename_variant m (v : Variant.t) =
  match
    Variant.make
      (rename_contraction m v.Variant.contraction)
      ~i:v.Variant.i ~j:v.Variant.j ~k:v.Variant.k ~rot:v.Variant.rot
  with
  | Ok v -> v
  | Error _ -> rename_bug "variant"

let rename_step m (s : Plan.step) =
  {
    s with
    Plan.contraction = rename_contraction m s.Plan.contraction;
    variant = rename_variant m s.Plan.variant;
  }

let rename_presum m (p : Plan.presum) =
  {
    p with
    Plan.out = rename_aref m p.Plan.out;
    source = rename_aref m p.Plan.source;
  }

let rename_solution m s =
  if SMap.is_empty m then s
  else
    {
      s with
      steps = List.map (rename_step m) s.steps;
      presums = List.map (rename_presum m) s.presums;
    }

(* --- The DP ------------------------------------------------------------ *)

type objective = Comm | Mem_first

(* The DP knobs one strategy rung turns: [prune = false] is the
   brute-force oracle; [share = false] plans a sum's terms without
   cross-term sharing. *)
type pass = {
  prune : bool;
  beam : int option;
  fusion_cap : int option;
  share : bool;
}

let exact_pass = { prune = true; beam = None; fusion_cap = None; share = true }

(* Per-request engine settings, fixed across every pass, shape and
   term of one planning request. *)
type engine = {
  ext : Extents.t;
  objective : objective;
  memo : bool;
  cancel : (unit -> bool) option;
  max_groups : int;
}

type ctx = {
  cfg : config;
  eng : engine;
  pass : pass;
  cache : memo option;  (** this solve's memo table *)
  pinned : (Index.t list * Dist.t) SMap.t;
      (** Sum optimization: leaf names that are shared intermediates,
          already materialized in the given distribution over the given
          index order (the representative's). Such a leaf is consumed
          like a produced intermediate — content-equal for free,
          otherwise through a costed redistribution — and its storage is
          charged as resident. Empty for single-tree solves. *)
}

(* Cooperative cancellation, checked at every DP node (and before each
   per-variant enumeration block, so a single huge node stays
   responsive). The raise propagates out of [plan] as the typed error. *)
let check_cancel ctx =
  match ctx.eng.cancel with
  | Some cancelled when cancelled () ->
    Tce_error.raise_err (Tce_error.Deadline_exceeded { where = "Search.solve" })
  | _ -> ()

(* --- Per-node tables (DESIGN.md §12) -------------------------------------

   Whether a (variant, left case, right case, parent fusion) combination
   is legal depends on a case only through its edge fusion and whether
   its child is stored — an intermediate, or a presummed input kept
   reduced under the edge fusion — rather than a leaf. Each side's cases
   are therefore numbered by their distinct (fusion, stored) key, every
   fusion set met at the node becomes an int mask, and legality is
   decided once per (variant, left key, right key, parent fusion):

   - chain: the three edge fusions are pairwise nested, so they can all
     be prefixes of one loop nesting;
   - forcing: the loops that force the node's whole computation inside
     them are the parent fusion (the produced array exists slice-wise)
     and each stored child's fusion (its slices are transient); a leaf's
     fusion only streams its communication. Every rotated array is then
     communicated inside the forcing loops, so each forcing index must
     be a dimension of the array (else it would need a full re-rotation
     per iteration, which the MsgFactor equations cannot express) and be
     fused on that array's edge so the cost is charged;
   - rotation axis: a fused index distributed along a rotated array's
     own rotation axis would exchange slices between processors
     iterating different chunk values of that loop — not executable;
   - distributed fusion: unless [allow_distributed_fusion], no array
     carries a fused index that its distribution splits.

   Every per-role mask is built index by index from the [Aref] and [Dist]
   predicates, so the mask rules agree with the set rules by
   construction. The role-only terms — each case's consumption, each
   rotated role's cost and message per key, the output's resident block
   per parent fusion — are computed once per variant, and a legal
   combination only sums them. *)

(* Bit [k] of a mask stands for the [k]-th index of [universe]: every
   index fused on some edge of the node. *)
let mask_where universe p =
  let m = ref 0 in
  List.iteri (fun k t -> if p t then m := !m lor (1 lsl k)) universe;
  !m

let mask universe set = mask_where universe (fun t -> Index.Set.mem t set)

let nested a b = a land lnot b = 0 || b land lnot a = 0

(* One side's cases, numbered by legality key: per key its fusion set,
   that set's mask and whether the child is stored; per case its key. *)
type side = {
  cases : (child_case * Index.Set.t) array;
  keys : (Index.Set.t * int * bool) array;
  key_of : int array;
}

let side_of universe cases =
  let ids = Hashtbl.create 16 and keys = ref [] in
  let key_of (case, fused) =
    let stored =
      match case with Cleaf _ -> false | Cpresum _ | Csol _ -> true
    in
    let m = mask universe fused in
    match Hashtbl.find_opt ids (m, stored) with
    | Some id -> id
    | None ->
      let id = Hashtbl.length ids in
      Hashtbl.add ids (m, stored) id;
      keys := (fused, m, stored) :: !keys;
      id
  in
  let cases = Array.of_list cases in
  let key_of = Array.map key_of cases in
  { cases; keys = Array.of_list (List.rev !keys); key_of }

(* [legal.(lk).(rk)]: the parent fusions (indices into [outs], in
   enumeration order) that [variant] admits with left key [lk] and right
   key [rk]. *)
let legal_table cfg universe variant ~outs ~left ~right =
  let role_masks role =
    let dist = Variant.dist_of variant role in
    let dims = Aref.index_set (Variant.aref_of variant role) in
    let barred =
      (if cfg.allow_distributed_fusion then 0
       else mask_where universe (Dist.distributes dist))
      lor
      (match Variant.axis_of variant role with
      | Some axis ->
        mask_where universe (fun t -> Dist.position_of dist t = Some axis)
      | None -> 0)
    in
    (mask_where universe (fun t -> Index.Set.mem t dims), barred)
  in
  let out_dims, out_barred = role_masks Variant.Out in
  let left_dims, left_barred = role_masks Variant.Left in
  let right_dims, right_barred = role_masks Variant.Right in
  (* A role's fused indices that may force the nesting: those of its
     edge that are also its dimensions — or every index, when the role
     is not rotated. *)
  let room role dims fused =
    if Variant.rotates variant role then dims land fused else -1
  in
  Array.map
    (fun (_, l, l_stored) ->
      Array.map
        (fun (_, r, r_stored) ->
          if
            l land left_barred <> 0
            || r land right_barred <> 0
            || not (nested l r)
          then [||]
          else
            let forced_by_children =
              (if l_stored then l else 0) lor (if r_stored then r else 0)
            in
            let room_lr =
              room Variant.Left left_dims l land room Variant.Right right_dims r
            in
            Array.of_list
              (List.filter
                 (fun o ->
                   let m = outs.(o) in
                   m land out_barred = 0
                   && nested l m && nested r m
                   && (m lor forced_by_children)
                      land lnot (room_lr land room Variant.Out out_dims m)
                      = 0)
                 (List.init (Array.length outs) Fun.id)))
        right.keys)
    left.keys

(* Consuming one child case under a variant: the resident words it adds
   at this node, its presums, and the redistribution of a produced (or
   pinned shared) value with that message's words; [None] when the
   redistribution is illegal under the edge fusion. *)
type consumed = {
  resident : int;
  own_presums : Plan.presum list;
  redist : Plan.redist option;
  redist_words : int;
}

let consume cfg ext ~rows ~cols ~pinned ~variant role (case, fused) =
  let local resident own_presums =
    Some { resident; own_presums; redist = None; redist_words = 0 }
  in
  let redistributed ~resident prod =
    match redistribution cfg ext ~variant ~role ~fused ~prod with
    | Error `Illegal -> None
    | Ok None -> local resident []
    | Ok (Some rd) ->
      let redist_words =
        Eqs.dist_size_rect ext ~rows ~cols ~alpha:rd.Plan.to_dist ~fused
          ~dims:(Aref.indices (Variant.aref_of variant role))
      in
      Some { resident; own_presums = []; redist = Some rd; redist_words }
  in
  match case with
  | Cleaf a -> begin
    match SMap.find_opt (Aref.name a) pinned with
    | Some (rep_order, stored) ->
      (* A shared intermediate of a sum, materialized earlier in
         [stored] over [rep_order]; renaming positionally onto this
         occurrence's indices gives its effective production
         distribution. Consumption follows producer rules — free when
         content-equal, otherwise a costed redistribution — and the
         stored value is charged resident (unreduced: it outlives this
         term). *)
      let prod = Dist.rename stored ~from:rep_order ~into:(Aref.indices a) in
      redistributed prod
        ~resident:
          (Eqs.dist_size_rect ext ~rows ~cols ~alpha:prod
             ~fused:Index.Set.empty ~dims:(Aref.indices a))
    | None ->
      (* Inputs materialize in the required distribution for free. *)
      local
        (Eqs.dist_size_rect ext ~rows ~cols
           ~alpha:(Variant.dist_of variant role) ~fused:Index.Set.empty
           ~dims:(Aref.indices a))
        []
  end
  | Cpresum { out; sum; source } ->
    (* The source input stays fully resident; the reduced array is
       stored under the edge fusion; the reduction itself is local. *)
    let alpha = Variant.dist_of variant role in
    local
      (Eqs.dist_size_rect ext ~rows ~cols ~alpha ~fused:Index.Set.empty
         ~dims:(Aref.indices source)
      + Eqs.dist_size_rect ext ~rows ~cols ~alpha ~fused
          ~dims:(Aref.indices out))
      [
        {
          Plan.out;
          sum;
          source;
          dist = alpha;
          fused;
          flops = Extents.size_of ext (Aref.indices source);
        };
      ]
  | Csol s -> redistributed ~resident:0 s.prod_dist

(* Solutions of the subtree rooted at [node]; [parent] provides the fusion
   candidates for the edge above (None at the root: fusion is empty). *)
let rec solve ctx ~parent node =
  let ( let* ) = Result.bind in
  check_cancel ctx;
  match node with
  | Tree.Leaf a ->
    err "leaf %s cannot be the whole computation" (Aref.name a)
  | Tree.Mult (a, _, _) ->
    err
      "node %s is a multiplication without summation (Hadamard); outside \
       the generalized Cannon template — restructure the expression"
      (Aref.name a)
  | Tree.Sum (a, _, Tree.Leaf _) ->
    err
      "summation node %s cannot be the whole computation (nothing to \
       distribute)"
      (Aref.name a)
  | Tree.Sum (a, _, _) ->
    err
      "node %s is a unary summation of an intermediate; the parallel \
       optimizer handles contraction trees with input pre-summations \
       (restructure the expression)"
      (Aref.name a)
  | Tree.Contract (_, _, l, r) ->
    let* contraction = Contraction.of_tree_node node in
    let f_out_candidates =
      match parent with
      | None -> [ Index.Set.empty ]
      | Some p ->
        fusion_candidates ?cap:ctx.pass.fusion_cap ctx.cfg ~child:node ~parent:p
    in
    (match ctx.cache with
    | None -> solve_contract ctx ~contraction ~f_out_candidates node l r
    | Some memo -> begin
      let key = memo_key ctx.cfg node f_out_candidates in
      let cached =
        match Hashtbl.find_opt memo key with
        | None -> None
        | Some (cached_tree, sols) -> begin
          match alpha_map ~cached:cached_tree ~current:node with
          | None -> None
          | Some m -> Some (List.map (rename_solution m) sols)
        end
      in
      match cached with
      | Some sols ->
        if Obs.enabled () then Obs.count "search.memo_hits";
        Ok sols
      | None ->
        if Obs.enabled () then Obs.count "search.memo_misses";
        let* sols = solve_contract ctx ~contraction ~f_out_candidates node l r in
        Hashtbl.replace memo key (node, sols);
        Ok sols
    end)

and solve_contract ctx ~contraction ~f_out_candidates node l r =
  let ( let* ) = Result.bind in
  let cfg = ctx.cfg and ext = ctx.eng.ext in
  let* left_cases = child_cases ctx node l in
  let* right_cases = child_cases ctx node r in
  let rows = Grid.rows cfg.grid and cols = Grid.cols cfg.grid in
  let flops = Contraction.flops ext contraction in
  let out_aref = contraction.Contraction.out in
  let universe =
    Index.Set.elements
      (List.fold_left
         (fun acc f -> Index.Set.union f acc)
         Index.Set.empty
         (f_out_candidates @ List.map snd (left_cases @ right_cases)))
  in
  let* () =
    if List.length universe <= Sys.int_size then Ok ()
    else
      err "node %s fuses %d distinct indices; fusion masks hold at most %d"
        (Aref.name out_aref) (List.length universe) Sys.int_size
  in
  let outs = Array.of_list f_out_candidates in
  let out_masks = Array.map (mask universe) outs in
  let left = side_of universe left_cases
  and right = side_of universe right_cases in
  (* One block per Cannon variant: each walks its (left case × right case
     × parent fusion) combinations and pushes hits in front, so a block's
     list is its chronological order reversed — exactly what the single
     [solutions := sol :: !solutions] accumulator produced per variant.
     Only the combinations the legality table admits are visited, in that
     same order. *)
  let enumerate variant =
    check_cancel ctx;
    let legal = legal_table cfg universe variant ~outs:out_masks ~left ~right in
    let live = Array.map (Array.exists (fun os -> Array.length os > 0)) legal in
    let alpha_out = Variant.dist_of variant Variant.Out in
    let out_resident =
      Array.map
        (fun fused ->
          Eqs.dist_size_rect ext ~rows ~cols ~alpha:alpha_out ~fused
            ~dims:(Aref.indices out_aref))
        outs
    in
    (* Per rotated role, its (cost, message words) per key of that role:
       a parent fusion for the output, a side key for an operand. *)
    let rotations =
      List.map
        (fun (role, axis) ->
          let alpha = Variant.dist_of variant role in
          let dims = Aref.indices (Variant.aref_of variant role) in
          let key_fusions side = Array.map (fun (f, _, _) -> f) side.keys in
          let fusions =
            match role with
            | Variant.Out -> outs
            | Variant.Left -> key_fusions left
            | Variant.Right -> key_fusions right
          in
          ( role,
            Array.map
              (fun fused ->
                ( Eqs.rotate_cost_rect ~rcost:cfg.rcost ext ~alpha ~fused ~dims
                    ~axis,
                  Eqs.dist_size_rect ext ~rows ~cols ~alpha ~fused ~dims ))
              fusions ))
        (Variant.rotated variant)
    in
    let consumed role side =
      Array.map
        (fun case ->
          lazy
            (consume cfg ext ~rows ~cols ~pinned:ctx.pinned ~variant role case))
        side.cases
    in
    let left_consumed = consumed Variant.Left left
    and right_consumed = consumed Variant.Right right in
    (* The solution of one legal combination, summing the hoisted terms
       in the order the cost was always summed; [None] over the memory
       limit. *)
    let solution_at (left_case, f_left) cl lk (right_case, f_right) cr rk o =
      let terms =
        List.map
          (fun (role, table) ->
            ( role,
              table.(match role with
                     | Variant.Out -> o
                     | Variant.Left -> lk
                     | Variant.Right -> rk) ))
          rotations
      in
      let mem =
        List.fold_left
          (fun m words -> Memacct.add_message m words)
          (Memacct.add_resident
             (Memacct.merge (child_mem left_case) (child_mem right_case))
             (cl.resident + cr.resident + out_resident.(o)))
          (List.map (fun (_, (_, words)) -> words) terms
          @ [ cl.redist_words; cr.redist_words ])
      in
      if not (fits cfg mem) then None
      else
        let rotations =
          List.map (fun (role, (cost, _)) -> (role, cost)) terms
        in
        let redists = List.filter_map (fun c -> c.redist) [ cl; cr ] in
        let cost =
          child_cost left_case +. child_cost right_case
          +. List.fold_left (fun a (_, c) -> a +. c) 0.0 rotations
          +. List.fold_left (fun a rd -> a +. rd.Plan.cost) 0.0 redists
        in
        let step =
          {
            Plan.contraction;
            variant;
            fusion_out = outs.(o);
            fusion_left = f_left;
            fusion_right = f_right;
            rotations;
            redists;
            flops;
          }
        in
        Some
          {
            prod_dist = alpha_out;
            fused = outs.(o);
            cost;
            mem;
            steps = child_steps left_case @ child_steps right_case @ [ step ];
            presums =
              child_presums left_case @ child_presums right_case
              @ cl.own_presums @ cr.own_presums;
          }
    in
    let acc = ref [] in
    Array.iteri
      (fun li lcase ->
        let lk = left.key_of.(li) in
        if live.(lk) then
          Option.iter
            (fun cl ->
              Array.iteri
                (fun ri rcase ->
                  let rk = right.key_of.(ri) in
                  if Array.length legal.(lk).(rk) > 0 then
                    Option.iter
                      (fun cr ->
                        Array.iter
                          (fun o ->
                            Option.iter
                              (fun sol -> acc := sol :: !acc)
                              (solution_at lcase cl lk rcase cr rk o))
                          legal.(lk).(rk))
                      (Lazy.force right_consumed.(ri)))
                right.cases)
            (Lazy.force left_consumed.(li)))
      left.cases;
    !acc
  in
  (* Concatenating the variants' lists last variant first reproduces the
     single-accumulator list (last variant's pushes in front), keeping the
     enumeration-order tie-break. *)
  let sols = List.concat (List.rev_map enumerate (Variant.all contraction)) in
  let generated = List.length sols in
  let sols = if ctx.pass.prune then prune_solutions cfg sols else sols in
  let sols = beam_filter cfg ctx.pass.beam sols in
  if Obs.enabled () then begin
    let kept = List.length sols in
    Obs.count "search.nodes";
    Obs.count ~by:generated "search.solutions_generated";
    Obs.count ~by:kept "search.solutions_kept";
    Obs.count ~by:(generated - kept) "search.solutions_pruned";
    Obs.instant ~cat:"search"
      ~args:
        [
          ("generated", string_of_int generated);
          ("kept", string_of_int kept);
        ]
      ("search:" ^ Aref.name out_aref)
  end;
  if sols = [] then
    err "no feasible solution at node %s under the %a memory limit"
      (Aref.name out_aref) Units.pp_bytes_si (mem_limit cfg)
  else Ok sols

(* The consumption options for one child: for an internal child each of its
   solutions (which fix the edge fusion); for a leaf, every fusion
   candidate (inputs may start in any distribution at no cost). *)
and child_cases ctx parent_node child =
  let ( let* ) = Result.bind in
  match child with
  | Tree.Leaf a ->
    Ok
      (List.map
         (fun f -> (Cleaf a, f))
         (fusion_candidates ?cap:ctx.pass.fusion_cap ctx.cfg ~child
            ~parent:parent_node))
  | Tree.Sum (a, k, Tree.Leaf src) ->
    (* A pre-summation of an input: evaluated locally on each processor's
       block (the summed dimensions are never in the distribution pair, by
       construction), so it only contributes storage and local flops. *)
    Ok
      (List.map
         (fun f -> (Cpresum { out = a; sum = k; source = src }, f))
         (fusion_candidates ?cap:ctx.pass.fusion_cap ctx.cfg ~child
            ~parent:parent_node))
  | _ ->
    let* sols = solve ctx ~parent:(Some parent_node) child in
    Ok (List.map (fun s -> (Csol s, s.fused)) sols)

let check_grid cfg =
  if
    Rcost.rows cfg.rcost <> Grid.rows cfg.grid
    || Rcost.cols cfg.rcost <> Grid.cols cfg.grid
  then
    Error
      (Printf.sprintf
         "characterization was measured for a %dx%d grid but the target is \
          %dx%d"
         (Rcost.rows cfg.rcost) (Rcost.cols cfg.rcost) (Grid.rows cfg.grid)
         (Grid.cols cfg.grid))
  else Ok ()

(* Turn a chosen solution into a plan (the plan-construction tail every
   entry point shares). *)
let assemble_solution cfg ext best =
  let flops =
    List.fold_left (fun acc (s : Plan.step) -> acc + s.flops) 0 best.steps
  in
  let flops =
    flops
    + List.fold_left (fun acc (p : Plan.presum) -> acc + p.flops) 0 best.presums
  in
  Tce_error.to_string_result
    (Tce_error.protect (fun () ->
         Plan.assemble ~ext ~grid:cfg.grid ~params:cfg.params ~flops
           ~mem:best.mem ~presums:best.presums best.steps))

(* --- The planning request (DESIGN.md §12) ------------------------------ *)

type problem = Tree of Tree.t | Sum of Sumexpr.t

type shape =
  | Grid of config
  | Shapes of { topo : Topology.t; procs : int; base : config }

type strategy = Exact | Beam of int | Greedy | Anytime

type request = {
  problem : problem;
  shape : shape;
  strategy : strategy;
  objective : objective;
}

let request ?(strategy = Exact) ?(objective = Comm) shape problem =
  { problem; shape; strategy; objective }

type outcome = Tree_plan of Plan.t | Sum_plan of Plan.sum

let tree_plan = function
  | Tree_plan p -> p
  | Sum_plan _ -> invalid_arg "Search.tree_plan: the request planned a sum"

let sum_plan = function
  | Sum_plan s -> s
  | Tree_plan _ -> invalid_arg "Search.sum_plan: the request planned a tree"

let outcome_comm = function
  | Tree_plan p -> Plan.comm_cost p
  | Sum_plan s -> s.Plan.sum_comm_cost

let outcome_mem ext = function
  | Tree_plan p -> Plan.mem_per_node_bytes p
  | Sum_plan s -> Plan.sum_mem_per_node_bytes ext s

let shape_candidates ~procs =
  if procs <= 0 then []
  else
    List.filter_map
      (fun rows ->
        if procs mod rows = 0 then
          Some (Grid.create_rect_exn ~rows ~cols:(procs / rows))
        else None)
      (List.init procs (fun k -> k + 1))

let intra_axis_count topo grid =
  List.length
    (List.filter
       (fun axis ->
         match Topology.axis_link topo grid ~axis with
         | Topology.Intra -> true
         | Topology.Inter -> false)
       [ 1; 2 ])

let base_config = function Grid cfg -> cfg | Shapes { base; _ } -> base

let machine ?fusion_mode ?mem_gb ?mflops ?latency_us ?bandwidth_mbs ?nodes
    ?(intra_latency_us = 1.0) ?(intra_bandwidth_mbs = 1000.0) ~topology ~procs
    () =
  let scaled k default = Option.fold ~none:default ~some:(fun v -> v *. k) in
  let params =
    match (latency_us, bandwidth_mbs) with
    | None, None ->
      let base = Params.itanium_2003 in
      {
        base with
        Params.mem_per_node_bytes =
          scaled 1e9 base.Params.mem_per_node_bytes mem_gb;
        flop_rate = scaled 1e6 base.Params.flop_rate mflops;
      }
    | lat, bw ->
      Params.uniform ~name:"uniform" ~latency:(scaled 1e-6 6.4e-2 lat)
        ~bandwidth:(scaled 1e6 13.6e6 bw) ~flop_rate:(scaled 1e6 6.15e8 mflops)
        ~procs_per_node:2 ~mem_per_node_bytes:(scaled 1e9 4e9 mem_gb)
  in
  let config ~params grid rcost =
    default_config
      ?mem_limit_bytes:(Option.map (fun gb -> gb *. 1e9) mem_gb)
      ?fusion_mode ~grid ~params ~rcost ()
  in
  match topology with
  | `Uniform ->
    Result.map
      (fun grid ->
        Grid
          (config ~params grid (Rcost.of_params params ~side:(Grid.side grid))))
      (Grid.create ~procs)
  | `Node -> (
    match nodes with
    | _ when procs <= 0 -> err "search: no grid shapes for %d processors" procs
    | Some n when n <= 0 || procs mod n <> 0 ->
      err "nodes (%d) must evenly divide procs (%d)" n procs
    | _ ->
      let ppn =
        match nodes with
        | Some n -> procs / n
        | None -> params.Params.procs_per_node
      in
      let params = { params with Params.procs_per_node = ppn } in
      let topo =
        Topology.node_aware params
          ~intra_latency:(intra_latency_us *. 1e-6)
          ~intra_bandwidth:(intra_bandwidth_mbs *. 1e6)
      in
      let grid = Grid.create_rect_exn ~rows:1 ~cols:procs in
      let base = config ~params grid (Rcost.of_topology topo grid) in
      Ok (Shapes { topo; procs; base }))

(* --- The driver --------------------------------------------------------- *)

let select_of cfg = function
  | Comm -> better
  | Mem_first ->
    (* Lexicographic (memory, communication): the "fuse as much as
       legally possible first, then distribute" discipline of the
       sequential prior work, transplanted into the parallel legality
       space. *)
    fun a b ->
      match
        Float.compare
          (Memacct.node_bytes cfg.params a.mem)
          (Memacct.node_bytes cfg.params b.mem)
      with
      | 0 -> better a b
      | c -> c

(* One bottom-up solve of a whole tree under [pinned]: the root's
   solution list. Fresh memo per solve: the memo key does not capture
   pinned distributions, so entries must not leak between solves under
   different pins. [traced] wraps the solve in the [search.solve] span. *)
let solve_root ?(pinned = SMap.empty) ~traced (eng : engine) pass cfg tree =
  let tree = Tree.fuse_mult_sum tree in
  match Tree.validate tree with
  | Error e -> Error e
  | Ok () ->
    let cache = if eng.memo then Some (Hashtbl.create 64) else None in
    let go () = solve { cfg; eng; pass; cache; pinned } ~parent:None tree in
    if traced then Obs.span ~cat:"search" "search.solve" go else go ()

let run_tree (eng : engine) pass cfg tree =
  let ( let* ) = Result.bind in
  let* sols = solve_root ~traced:true eng pass cfg tree in
  match Listx.minimum_by (select_of cfg eng.objective) sols with
  | None -> Error "no feasible solution"
  | Some best ->
    Result.map (fun p -> Tree_plan p) (assemble_solution cfg eng.ext best)

(* --- Sum optimization: multi-term with cross-term CSE (DESIGN.md §16) --

   A sum [O = Σᵢ cᵢ·Tᵢ] is planned in two phases: the cross-term shared
   subtrees found by [Sumexpr.detect] are materialized first, then every
   term is solved as an ordinary tree whose occurrences of a shared value
   are pinned leaves (consumed under producer rules from the stored
   distribution — see [consume]). The optimizer enumerates every subset
   of the detected groups (≤ 2^3) — sharing is not always a win: storing
   a shared value costs memory for its whole lifetime and may force
   redistributions its consumers would not otherwise pay — and, per
   subset, the cartesian product of the shared subtrees' solution lists;
   term solutions are filtered by their lifetime memory (the term's own
   peak plus the residency of shared values still needed later) and the
   cheapest feasible combination wins. Subset 0 is the no-sharing
   baseline, so the result is never worse than planning each term
   independently.

   Determinism: the mask loop, the cartesian enumeration and the
   strictly-better-first tie-break are fixed, so the chosen sum plan is
   deterministic. *)

let sum_fingerprint se =
  let buf = Buffer.create 256 in
  Buffer.add_string buf "sum|";
  List.iter
    (fun i ->
      Buffer.add_string buf (Index.name i);
      Buffer.add_char buf ',')
    (Aref.indices (Sumexpr.out se));
  List.iter
    (fun (t : Sumexpr.term) ->
      Buffer.add_string buf (Printf.sprintf "|%h*" t.Sumexpr.coeff);
      Buffer.add_string buf (fingerprint ~with_names:true t.Sumexpr.tree))
    (Sumexpr.terms se);
  Buffer.contents buf

(* Map over a list inside the result monad, propagating the first error. *)
let map_result f l =
  let rec go acc = function
    | [] -> Ok (List.rev acc)
    | x :: rest -> ( match f x with Ok y -> go (y :: acc) rest | Error _ as e -> e)
  in
  go [] l

let run_sum (eng : engine) pass cfg se =
  let ( let* ) = Result.bind in
  let ext = eng.ext in
  let select = select_of cfg eng.objective in
  let out = Sumexpr.out se in
  let max_groups = if pass.share then eng.max_groups else 0 in
  let groups =
    if max_groups <= 0 then [] else Sumexpr.detect ~max_groups ext se
  in
  let limit = mem_limit cfg in
  let rows = Grid.rows cfg.grid and cols = Grid.cols cfg.grid in
  let solve_tree ?pinned tree =
    solve_root ?pinned ~traced:false eng pass cfg tree
  in
  (* Each group's representative, solved once; [] when infeasible alone
     (masks selecting it are skipped). *)
  let rep_sols =
    List.map
      (fun (g : Sumexpr.group) ->
        match solve_tree g.Sumexpr.rep with Ok sols -> sols | Error _ -> [])
      groups
  in
  let consumers =
    List.map
      (fun (g : Sumexpr.group) ->
        List.sort_uniq compare
          (List.map (fun (o : Sumexpr.occ) -> o.Sumexpr.term) g.Sumexpr.occs))
      groups
  in
  let annotated = List.combine (List.combine groups rep_sols) consumers in
  let term_cache = Hashtbl.create 64 in
  let stored_words (g : Sumexpr.group) sol =
    Eqs.dist_size_rect ext ~rows ~cols ~alpha:sol.prod_dist
      ~fused:Index.Set.empty ~dims:g.Sumexpr.rep_order
  in
  let feasible extra sol =
    Memacct.node_bytes cfg.params (Memacct.add_resident sol.mem extra) <= limit
  in
  let best = ref None in
  (* One candidate: a group-subset assignment of shared solutions plus
     the hoisted term trees; feasibility-check, solve every term, and
     keep the cheapest total. *)
  let consider mask assignment term_trees =
    (* [assignment]: (group, consuming terms, chosen solution) in detect
       order. Shared values materialize in that order, each on top of
       its predecessors' storage. *)
    let stored = List.map (fun (g, _, s) -> stored_words g s) assignment in
    let shared_ok =
      let rec go before asg ws =
        match (asg, ws) with
        | [], [] -> true
        | (_, _, s) :: arest, w :: wrest ->
          feasible before s && go (before + w) arest wrest
        | _ -> false
      in
      go 0 assignment stored
    in
    if shared_ok then begin
      let akey =
        String.concat ";"
          (List.map
             (fun ((g : Sumexpr.group), _, s) ->
               g.Sumexpr.name ^ "=" ^ orient_key s.prod_dist)
             assignment)
      in
      let pinned =
        List.fold_left
          (fun m ((g : Sumexpr.group), _, s) ->
            SMap.add g.Sumexpr.name (g.Sumexpr.rep_order, s.prod_dist) m)
          SMap.empty assignment
      in
      (* Extra residency while term [i] runs: shared values with a later
         consumer that term [i] does not itself read (its own reads are
         pinned leaves, already inside the term solution's account). *)
      let extra_for i =
        List.fold_left2
          (fun acc (_, cons, _) w ->
            let last = List.fold_left max (-1) cons in
            if last >= i && not (List.mem i cons) then acc + w else acc)
          0 assignment stored
      in
      let term_best =
        List.mapi
          (fun i tree ->
            let sols =
              match Hashtbl.find_opt term_cache (mask, i, akey) with
              | Some r -> r
              | None ->
                let r = solve_tree ~pinned tree in
                Hashtbl.replace term_cache (mask, i, akey) r;
                r
            in
            match sols with
            | Error _ -> None
            | Ok sols ->
              Listx.minimum_by select
                (List.filter (feasible (extra_for i)) sols))
          term_trees
      in
      if List.for_all Option.is_some term_best then begin
        let term_best = List.map Option.get term_best in
        let total =
          List.fold_left
            (fun a (_, _, (s : solution)) -> a +. s.cost)
            0.0 assignment
          +. List.fold_left
               (fun a (s : solution) -> a +. s.cost)
               0.0 term_best
        in
        match !best with
        | Some (c, _, _) when c <= total -> ()
        | _ -> best := Some (total, assignment, term_best)
      end
    end
  in
  let ng = List.length groups in
  List.iter
    (fun mask ->
      let sel =
        List.filteri (fun gi _ -> mask land (1 lsl gi) <> 0) annotated
      in
      if List.for_all (fun ((_, sols), _) -> sols <> []) sel then begin
        let selected = List.map (fun ((g, _), _) -> g) sel in
        let _, terms' = Sumexpr.hoist se ~selected in
        let term_trees =
          List.map (fun (t : Sumexpr.term) -> t.Sumexpr.tree) terms'
        in
        let rec assignments acc = function
          | [] -> consider mask (List.rev acc) term_trees
          | ((g, sols), cons) :: rest ->
            List.iter (fun s -> assignments ((g, cons, s) :: acc) rest) sols
        in
        assignments [] sel
      end)
    (List.init (1 lsl ng) Fun.id);
  match !best with
  | None ->
    err "no feasible solution for the sum under the %a memory limit"
      Units.pp_bytes_si limit
  | Some (_, assignment, term_best) ->
    let* shared =
      map_result
        (fun ((g : Sumexpr.group), _, s) ->
          let* p = assemble_solution cfg ext s in
          Ok (g.Sumexpr.name, g.Sumexpr.rep_order, p))
        assignment
    in
    let* terms =
      map_result
        (fun ((t : Sumexpr.term), s) ->
          let* p = assemble_solution cfg ext s in
          Ok (t.Sumexpr.coeff, p))
        (List.combine (Sumexpr.terms se) term_best)
    in
    Ok
      (Sum_plan
         (Plan.assemble_sum ~ext ~grid:cfg.grid ~params:cfg.params ~out
            ~shared ~terms))


(* --- Shapes, strategies and the request entry point --------------------- *)

(* One pass of the problem on one grid: the prelude every pass shares
   (the characterization must match the grid), then the tree or sum
   planner. *)
let solve_on eng pass cfg problem =
  match check_grid cfg with
  | Error e -> Error e
  | Ok () -> (
    match problem with
    | Tree tree -> run_tree eng pass cfg tree
    | Sum se -> run_sum eng pass cfg se)

(* How a request ranks finished plans: by communication, preceded by
   per-node memory under [Mem_first]. *)
let rank (eng : engine) o =
  ( (match eng.objective with
    | Comm -> 0.0
    | Mem_first -> outcome_mem eng.ext o),
    outcome_comm o )

(* Deterministic shape choice: the best-ranked plan; ties prefer more
   node-aligned (intra-node) axes, then the more nearly square shape,
   then fewer rows. Shapes are visited in a fixed order, so the choice
   is deterministic. *)
let best_shape eng ~topo ~procs ~solve =
  match shape_candidates ~procs with
  | [] -> err "search: no grid shapes for %d processors" procs
  | shapes ->
    let score grid o =
      ( rank eng o,
        -intra_axis_count topo grid,
        abs (Grid.rows grid - Grid.cols grid),
        Grid.rows grid )
    in
    let best =
      List.fold_left
        (fun acc grid ->
          match solve grid with
          | Error e -> (
            match acc with `Err _ -> `Err e | `Best _ -> acc)
          | Ok o -> (
            let s = score grid o in
            match acc with
            | `Best (s0, _) when compare s0 s <= 0 -> acc
            | `Best _ | `Err _ -> `Best (s, o)))
        (`Err "no feasible shape") shapes
    in
    (match best with `Best (_, o) -> Ok o | `Err e -> Error e)

let solve_shape eng pass (req : request) =
  match req.shape with
  | Grid cfg -> solve_on eng pass cfg req.problem
  | Shapes { topo; procs; base } ->
    best_shape eng ~topo ~procs ~solve:(fun grid ->
        solve_on eng pass
          { base with grid; rcost = Rcost.of_topology topo grid }
          req.problem)

(* The greedy rungs: the beam-1 DP on a truncated candidate space — at
   every node keep only the single cheapest candidate under the paper's
   cost model (the beam order is cost-first) and only consider fused
   sets of at most one index per edge (the 2^|fusible| per-edge
   enumeration is where the exact search spends its time). A cut this
   aggressive can strand the search — the kept child solution may admit
   no legal parent combination under the memory limit, or the
   memory-saving fusion it needs may exceed the cap — so on
   infeasibility the rungs widen (beam 1/cap 1 → 4/2 → 16/all → exact)
   before giving up. A sum's terms are planned without sharing. Every
   plan this returns came through [Plan.assemble] on a fully costed
   solution, so it is certifiable like any exact plan. *)
let greedy_rungs =
  List.map
    (fun (w, cap) ->
      { prune = true; beam = Some w; fusion_cap = cap; share = false })
    [ (1, Some 1); (4, Some 2); (16, None) ]
  @ [ { exact_pass with share = false } ]

let rec first_feasible solve = function
  | [] -> Error "no feasible solution"
  | [ pass ] -> solve pass
  | pass :: rest -> (
    match solve pass with Ok o -> Ok o | Error _ -> first_feasible solve rest)

type anytime_round = { width : int option; cost : float; improved : bool }

let anytime_widths = [ 4; 16; 64 ]

(* The first round is the greedy seed (milliseconds); each later round
   is a fresh DP at the next beam width with the full candidate space
   (memo entries hold beam-cut solution lists, so they cannot be shared
   across widths); the best plan so far is kept, which makes the
   reported cost monotone non-increasing by construction, and the final
   unbounded round makes the limit the exact optimum. A deadline raised
   mid-round returns the best-so-far instead of failing, provided any
   round completed. *)
let run_anytime ?on_round eng solve =
  let rounds =
    ((Some 1, fun () -> first_feasible solve greedy_rungs)
    :: List.map
         (fun w -> (Some w, fun () -> solve { exact_pass with beam = Some w }))
         anytime_widths)
    @ [ (None, fun () -> solve exact_pass) ]
  in
  let rec go best last_err = function
    | [] -> (
      match best with
      | Some o -> Ok o
      | None -> Error (Option.value last_err ~default:"no feasible solution"))
    | (width, round) :: rest -> (
      match round () with
      | Ok o ->
        let improved =
          match best with None -> true | Some b -> rank eng o < rank eng b
        in
        let best = if improved then Some o else best in
        Option.iter
          (fun f ->
            f { width; cost = outcome_comm (Option.get best); improved })
          on_round;
        go best last_err rest
      | Error e -> go best (Some e) rest
      | exception Tce_error.Error (Tce_error.Deadline_exceeded _)
        when best <> None ->
        Ok (Option.get best))
  in
  go None None rounds

(* The engine settings shared by every pass of one request. *)
let engine ?(memo = true) ?(max_groups = 3) ?cancel ~objective ext =
  { ext; objective; memo; cancel; max_groups }

(* The sum planner shares the full fusion space and ranks its subset
   choice by communication, so a sum takes neither the fusion-free space
   nor the memory-first objective. *)
let check (req : request) =
  match
    ( req.problem,
      req.strategy,
      req.objective,
      (base_config req.shape).fusion_mode )
  with
  | _, Beam k, _, _ when k < 1 ->
    err "search: beam width must be >= 1 (got %d)" k
  | Sum _, _, Mem_first, _ | Sum _, _, _, No_fusion ->
    Error
      "multi-term sums support fusion \"all\" only (the sum optimizer \
       plans every term with the full fusion space)"
  | _ -> Ok ()

let plan ?memo ?max_groups ?cancel ?on_round ext (req : request) =
  match check req with
  | Error _ as e -> e
  | Ok () ->
    let eng = engine ?memo ?max_groups ?cancel ~objective:req.objective ext in
    let solve pass = solve_shape eng pass req in
    match req.strategy with
    | Exact -> solve exact_pass
    | Beam k -> solve { exact_pass with beam = Some k }
    | Greedy -> first_feasible solve greedy_rungs
    | Anytime -> run_anytime ?on_round eng solve

let brute_force ext (req : request) =
  match check req with
  | Error _ as e -> e
  | Ok () ->
    solve_shape
      (engine ~memo:false ~objective:req.objective ext)
      { exact_pass with prune = false }
      req

let strategy_of_beam = function None -> Exact | Some k -> Beam k

let optimize ?memo ?beam ?cancel cfg ext tree =
  Result.map tree_plan
    (plan ?memo ?cancel ext
       (request ~strategy:(strategy_of_beam beam) (Grid cfg) (Tree tree)))

let optimize_sum ?memo ?beam ?max_groups ?cancel cfg ext se =
  Result.map sum_plan
    (plan ?memo ?max_groups ?cancel ext
       (request ~strategy:(strategy_of_beam beam) (Grid cfg) (Sum se)))

let solution_count ?memo ?beam cfg ext tree =
  match check_grid cfg with
  | Error e -> Error e
  | Ok () ->
    Result.map List.length
      (solve_root ~traced:false
         (engine ?memo ~objective:Comm ext)
         { exact_pass with beam } cfg tree)

(* --- Content fingerprint and plan renaming (the serve-layer cache) ----- *)

let tree_fingerprint cfg tree =
  let with_names =
    match cfg.fusion_mode with Fixed _ -> true | Enumerate | No_fusion -> false
  in
  fingerprint ~with_names (Tree.fuse_mult_sum tree)

let rename_plan ~ext ~cached ~current (plan : Plan.t) =
  let cached = Tree.fuse_mult_sum cached in
  let current = Tree.fuse_mult_sum current in
  match alpha_map ~cached ~current with
  | None -> None (* leaf/intermediate name clash: recompute instead *)
  | Some m ->
    if SMap.is_empty m then Some plan
    else begin
      let steps = List.map (rename_step m) plan.Plan.steps in
      let presums = List.map (rename_presum m) plan.Plan.presums in
      match
        Tce_error.protect (fun () ->
            Plan.assemble ~ext ~grid:plan.Plan.grid ~params:plan.Plan.params
              ~flops:plan.Plan.flops ~mem:plan.Plan.mem ~presums steps)
      with
      | Ok p -> Some p
      | Error _ -> None
    end
