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
  out_rots : int;  (** rotated outputs over [steps] *)
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

let child_out_rots = function Cleaf _ | Cpresum _ -> 0 | Csol s -> s.out_rots
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
let better a b =
  match Float.compare a.cost b.cost with
  | 0 -> Int.compare a.out_rots b.out_rots
  | c -> c

let fused_key fused =
  String.concat "," (List.map Index.name (Index.Set.elements fused))

let orient_key dist =
  String.concat "," (List.map Index.name (Dist.indices dist))

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

(* The priced candidates of one DP node, in enumeration order: one row
   per candidate, stored column-wise (DESIGN.md §12), and the scratch
   that pruning and the beam sort in. *)
type priced = {
  mutable n : int;
  mutable cost : float array;
  mutable bytes : float array;  (** node bytes *)
  mutable rots : int array;  (** output rotations, children's included *)
  mutable group : int array;  (** (content, fusion) pruning group *)
  mutable variant : int array;
  mutable left : int array;  (** left case *)
  mutable right : int array;  (** right case *)
  mutable out : int array;  (** parent fusion *)
  mutable rows : int array;  (** prune: every group's rows; beam: its list *)
  mutable merge : int array;  (** the sort's merge buffer *)
  mutable ticks : int;  (** comparisons, for polling *)
  mutable high : int;  (** the most rows a node of this request priced *)
  busy : bool Atomic.t;  (** a request is pricing into it *)
}

let priced () =
  {
    n = 0;
    cost = [||];
    bytes = [||];
    rots = [||];
    group = [||];
    variant = [||];
    left = [||];
    right = [||];
    out = [||];
    rows = [||];
    merge = [||];
    ticks = 0;
    high = 0;
    busy = Atomic.make false;
  }

(* The next free row, growing every column by doubling when full. A
   column of millions of rows takes milliseconds to allocate and as many
   to copy, so [poll] runs before each of those steps; the float columns
   are allocated unfilled, as only rows below [n] are read. The store
   outlives a cancelled request, so a growth that [poll] cuts short must
   leave it usable: columns grow in order, [out] last, and each only
   while it is full, so every column is at least as long as [out] and
   the next growth finishes the rest. *)
let next_row ~poll p =
  let t = p.n in
  if t = Array.length p.out then begin
    let grow a make =
      if Array.length a > t then a
      else begin
        poll ();
        let b = make (max 64 (2 * t)) in
        poll ();
        Array.blit a 0 b 0 t;
        b
      end
    in
    let ints n = Array.make n 0 in
    p.cost <- grow p.cost Array.create_float;
    p.bytes <- grow p.bytes Array.create_float;
    p.rots <- grow p.rots ints;
    p.group <- grow p.group ints;
    p.variant <- grow p.variant ints;
    p.left <- grow p.left ints;
    p.right <- grow p.right ints;
    p.out <- grow p.out ints
  end;
  p.n <- t + 1;
  t

(* [a] when it holds [len] rows, else a larger scratch array (its
   contents are not kept). *)
let scratch a len =
  if Array.length a >= len then a
  else Array.make (max len (2 * Array.length a)) 0

(* One store per domain: a node resets it ([n = 0]) and prices into it,
   and is done with it before its parent starts pricing, so a request's
   every pass, shape and term share it, and so do the requests a domain
   serves in turn. *)
let store_key = Domain.DLS.new_key priced

(* [f] on the calling domain's store, or on a fresh one while that one
   is busy: a solve nested in another, or a second systhread. A request
   keeps the store only when a fresh one would have grown as large: one
   that its nodes filled to no more than half was grown by an earlier,
   larger request, and is dropped. So between requests a domain holds
   at most the store its last request needed. *)
let with_store f =
  let own = Domain.DLS.get store_key in
  if Atomic.compare_and_set own.busy false true then
    Fun.protect
      ~finally:(fun () ->
        let rows = Array.length own.out in
        if rows > 64 && 2 * Int.max own.high own.n <= rows then
          Domain.DLS.set store_key (priced ())
        else own.high <- 0;
        Atomic.set own.busy false)
      (fun () -> f own)
  else f (priced ())

let store_bytes () =
  let p = Domain.DLS.get store_key in
  let floats = Array.length p.cost + Array.length p.bytes in
  let ints =
    Array.length p.rots + Array.length p.group + Array.length p.variant
    + Array.length p.left + Array.length p.right + Array.length p.out
    + Array.length p.rows + Array.length p.merge
  in
  (8 * floats) + (Sys.word_size / 8 * ints)

(* Per-request engine settings, fixed across every pass, shape and
   term of one planning request, and the candidate store its DP nodes
   price into in turn. *)
type engine = {
  ext : Extents.t;
  objective : objective;
  memo : bool;
  cancel : (unit -> bool) option;
  max_groups : int;
  priced : priced;
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

(* Cooperative cancellation, checked at every DP node and before each
   per-variant enumeration block, and within a node every 4,096 priced
   candidates, per column as the candidate store grows, and as pruning
   counts, visits and sorts its groups, so a single huge node stays
   responsive. The raise propagates out of [plan] as the typed error. *)
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
   per parent fusion — are computed once per variant, the rotation cost
   sum and largest rotated message once per admitted (left key, right
   key, parent fusion), and a legal combination only sums them. *)

(* Bit [k] of a mask stands for the [k]-th index of [universe]: every
   index fused on some edge of the node. *)
let mask_where universe p =
  let m = ref 0 in
  List.iteri (fun k t -> if p t then m := !m lor (1 lsl k)) universe;
  !m

let mask universe set = mask_where universe (fun t -> Index.Set.mem t set)

let nested a b = a land lnot b = 0 || b land lnot a = 0

(* One side's cases, numbered by legality key: per key its fusion set,
   that set's mask and whether the child is stored; per case its key.
   Cases consume alike under every variant when they are child solutions
   with the same key and production distribution, so each case also has
   a consumption class, and [class_case] holds each class's first case. *)
type side = {
  cases : (child_case * Index.Set.t) array;
  keys : (Index.Set.t * int * bool) array;
  key_of : int array;
  class_of : int array;
  class_case : int array;
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
  let classes = Hashtbl.create 16 and firsts = ref [] and n = ref 0 in
  let fresh i =
    firsts := i :: !firsts;
    incr n;
    !n - 1
  in
  let class_of =
    Array.mapi
      (fun i (case, _) ->
        match case with
        | Cleaf _ | Cpresum _ -> fresh i
        | Csol s -> (
          let k = (key_of.(i), s.prod_dist) in
          match Hashtbl.find_opt classes k with
          | Some c -> c
          | None ->
            let c = fresh i in
            Hashtbl.add classes k c;
            c))
      cases
  in
  {
    cases;
    keys = Array.of_list (List.rev !keys);
    key_of;
    class_of;
    class_case = Array.of_list (List.rev !firsts);
  }

(* What one (left key, right key) pair admits under a variant: the
   parent fusions (indices into the node's fusion list, in enumeration
   order) and, per admitted fusion, the terms every candidate there
   shares — the rotated arrays' costs summed from zero in rotation order
   (the rotation term of the cost) and the largest rotated message. *)
type legal = { outs : int array; rot_cost : float array; msg_words : int array }

let no_legal = { outs = [||]; rot_cost = [||]; msg_words = [||] }

(* [legal.(lk).(rk)] for [variant], whose rotated roles have the given
   (cost, message words) tables per key ([no_legal] when the pair admits
   no parent fusion). *)
let legal_table cfg universe variant ~rotations ~outs ~left ~right =
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
  let legal_terms ~lk ~rk os =
    let n = Array.length os in
    let rot_cost = Array.make n 0.0 and msg_words = Array.make n 0 in
    for k = 0 to n - 1 do
      let cost = ref 0.0 and words = ref 0 in
      for r = 0 to Array.length rotations - 1 do
        let role, table = rotations.(r) in
        let c, w =
          table.(match role with
                 | Variant.Out -> os.(k)
                 | Variant.Left -> lk
                 | Variant.Right -> rk)
        in
        cost := !cost +. c;
        words := Int.max !words w
      done;
      rot_cost.(k) <- !cost;
      msg_words.(k) <- !words
    done;
    { outs = os; rot_cost; msg_words }
  in
  let admitted = Array.make (Array.length outs) 0 in
  Array.mapi
    (fun lk (_, l, l_stored) ->
      Array.mapi
        (fun rk (_, r, r_stored) ->
          if
            l land left_barred <> 0
            || r land right_barred <> 0
            || not (nested l r)
          then no_legal
          else begin
            let forced_by_children =
              (if l_stored then l else 0) lor (if r_stored then r else 0)
            in
            let room_lr =
              room Variant.Left left_dims l land room Variant.Right right_dims r
            in
            let n = ref 0 in
            for o = 0 to Array.length outs - 1 do
              let m = outs.(o) in
              if
                m land out_barred = 0
                && nested l m && nested r m
                && (m lor forced_by_children)
                   land lnot (room_lr land room Variant.Out out_dims m)
                   = 0
              then begin
                admitted.(!n) <- o;
                incr n
              end
            done;
            if !n = 0 then no_legal
            else legal_terms ~lk ~rk (Array.sub admitted 0 !n)
          end)
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

(* One variant's share of a node: what pricing and building a candidate
   under it read, computed once. Consumption is per side class. *)
type variant_terms = {
  variant : Variant.t;
  legal : legal array array;  (** per (left key, right key) *)
  live : bool array;  (** per left key: admits some combination *)
  rotations : (Variant.role * (float * int) array) array;
      (** per rotated role, in rotation order, its (cost, message words)
          per key of that role: a parent fusion for the output, a side key
          for an operand *)
  out_resident : int array;  (** per parent fusion *)
  left_consumed : consumed option Lazy.t array;
  right_consumed : consumed option Lazy.t array;
  step_out_rots : int;
}

let variant_terms ctx ~rows ~cols ~universe ~out_masks ~left ~right
    ~rotation ~resident variant =
  let cfg = ctx.cfg and ext = ctx.eng.ext in
  let rotations =
    Array.of_list
      (List.map
         (fun (role, axis) ->
           (role, rotation (role, Variant.dist_of variant role, axis)))
         (Variant.rotated variant))
  in
  let legal =
    legal_table cfg universe variant ~rotations ~outs:out_masks ~left ~right
  in
  let consumed role side =
    Array.map
      (fun i ->
        lazy
          (consume cfg ext ~rows ~cols ~pinned:ctx.pinned ~variant role
             side.cases.(i)))
      side.class_case
  in
  {
    variant;
    legal;
    live = Array.map (Array.exists (fun e -> e != no_legal)) legal;
    rotations;
    out_resident = resident (Variant.dist_of variant Variant.Out);
    left_consumed = consumed Variant.Left left;
    right_consumed = consumed Variant.Right right;
    step_out_rots =
      Array.fold_left
        (fun n (role, _) ->
          if Variant.role_equal role Variant.Out then n + 1 else n)
        0 rotations;
  }

(* --- Price, prune, build (DESIGN.md §12) ----------------------------------

   A node's candidates are its legal (variant, left case, right case,
   parent fusion) combinations within the memory limit. Most are pruned,
   so a candidate is first only priced: a row of flat columns holding its
   cost, node bytes, output rotations, group and the four indices.
   Pruning and the beam read nothing else, and only the candidates they
   keep are built into steps and solutions. *)

let redist_cost c acc =
  match c.redist with Some rd -> acc +. rd.Plan.cost | None -> acc

(* Price variant [v]'s legal combinations into [p], in enumeration order
   (left case, right case, then parent fusion as [legal] lists them). A
   candidate's cost sums, in this order, the child costs, the rotation
   term and the redistributions; a combination over [limit] node bytes
   is not a candidate. [poll] runs once every 4,096 candidates, so a
   node of millions stays cancellable. *)
let price p ~poll ~bytes_per_word ~limit ~group_of ~left ~right v vt =
  for li = 0 to Array.length left.cases - 1 do
    let lk = left.key_of.(li) in
    if vt.live.(lk) then
      match Lazy.force vt.left_consumed.(left.class_of.(li)) with
      | None -> ()
      | Some cl ->
        let lcase, _ = left.cases.(li) in
        let l_cost = child_cost lcase and l_mem = child_mem lcase in
        let l_rots = child_out_rots lcase + vt.step_out_rots in
        let row = vt.legal.(lk) in
        for ri = 0 to Array.length right.cases - 1 do
          let e = row.(right.key_of.(ri)) in
          if e != no_legal then
            match Lazy.force vt.right_consumed.(right.class_of.(ri)) with
            | None -> ()
            | Some cr ->
              let rcase, _ = right.cases.(ri) in
              let r_mem = child_mem rcase in
              let cost_lr = l_cost +. child_cost rcase in
              let redist = redist_cost cr (redist_cost cl 0.0) in
              let resident =
                l_mem.Memacct.resident_words + r_mem.Memacct.resident_words
                + cl.resident + cr.resident
              in
              let buffer =
                Int.max
                  (Int.max l_mem.Memacct.buffer_words
                     r_mem.Memacct.buffer_words)
                  (Int.max cl.redist_words cr.redist_words)
              in
              let rots = l_rots + child_out_rots rcase in
              for k = 0 to Array.length e.outs - 1 do
                let o = e.outs.(k) in
                let bytes =
                  bytes_per_word
                  *. float_of_int
                       (resident + vt.out_resident.(o)
                       + Int.max buffer e.msg_words.(k))
                in
                if bytes <= limit then begin
                  let t = next_row ~poll p in
                  if t land 4095 = 4095 then poll ();
                  p.cost.(t) <- cost_lr +. e.rot_cost.(k) +. redist;
                  p.bytes.(t) <- bytes;
                  p.rots.(t) <- rots;
                  p.group.(t) <- group_of.(o);
                  p.variant.(t) <- v;
                  p.left.(t) <- li;
                  p.right.(t) <- ri;
                  p.out.(t) <- o
                end
              done
        done
  done

(* The order pruning and the beam share: cost, node bytes, output
   rotations, the oriented production distribution's rank, the fused
   set's rank, then enumeration order, newest first. The last key never
   ties, so the order is total. Whether row [x] comes before row [y]. *)
let precedes p ~orient ~fused x y =
  match Float.compare p.cost.(x) p.cost.(y) with
  | 0 -> (
    match Float.compare p.bytes.(x) p.bytes.(y) with
    | 0 -> (
      match Int.compare p.rots.(x) p.rots.(y) with
      | 0 -> (
        match Int.compare orient.(p.variant.(x)) orient.(p.variant.(y)) with
        | 0 -> (
          match Int.compare fused.(p.out.(x)) fused.(p.out.(y)) with
          | 0 -> x > y
          | c -> c < 0)
        | c -> c < 0)
      | c -> c < 0)
    | c -> c < 0)
  | c -> c < 0

(* [precedes], counted: [poll] runs every 4,096 comparisons. *)
let before p ~poll ~orient ~fused x y =
  p.ticks <- p.ticks + 1;
  if p.ticks land 4095 = 0 then poll ();
  precedes p ~orient ~fused x y

(* Sorts [p.rows.(lo .. hi - 1)] by [precedes]: a merge sort that moves
   each left half aside into [p.merge]. *)
let rec sort_rows p ~poll ~orient ~fused lo hi =
  let a = p.rows in
  if hi - lo <= 12 then
    for i = lo + 1 to hi - 1 do
      let x = a.(i) in
      let j = ref (i - 1) in
      while !j >= lo && before p ~poll ~orient ~fused x a.(!j) do
        a.(!j + 1) <- a.(!j);
        decr j
      done;
      a.(!j + 1) <- x
    done
  else begin
    let mid = (lo + hi) / 2 in
    sort_rows p ~poll ~orient ~fused lo mid;
    sort_rows p ~poll ~orient ~fused mid hi;
    if before p ~poll ~orient ~fused a.(mid) a.(mid - 1) then begin
      let b = p.merge in
      Array.blit a lo b 0 (mid - lo);
      let i = ref 0 and j = ref mid and k = ref lo in
      while !i < mid - lo do
        if !j < hi && before p ~poll ~orient ~fused a.(!j) b.(!i) then begin
          a.(!k) <- a.(!j);
          incr j
        end
        else begin
          a.(!k) <- b.(!i);
          incr i
        end;
        incr k
      done
    end
  end

(* Pareto pruning within (production distribution content, fusion) groups:
   the paper's "inferior solution" rule. A candidate is dominated when
   another candidate of its group is no worse on (cost, node bytes) and
   strictly better on cost, bytes or output rotations. Exact ties beyond
   that are broken by an explicit deterministic key — the oriented
   production distribution (the pair order the content key deliberately
   erases), then enumeration order — so exactly one of a set of
   duplicates survives.

   The survivors are therefore exactly one candidate per Pareto-minimal
   (cost, bytes) point of the group: the least under (output rotations,
   oriented key, enumeration order) of the candidates at that point. In
   the group's order under [precedes] (whose fused key is constant within
   a group), a candidate survives when its bytes are below those of every
   candidate before it (an earlier one has lower cost, or equal cost and
   fewer bytes, or the same point and a smaller tie-break).

   The order of the survivor list is part of the result: a parent's
   enumeration-order tie-break reads it. A node lists its candidates
   newest first, and "enumeration order" is a candidate's position in
   that list, so the later-enumerated of two exact duplicates survives.
   Groups are listed in the reverse [Hashtbl.fold] order of a
   [Hashtbl.create 32] keyed by (content key, fused key) strings, each
   inserted at its first occurrence in the newest-first list; a group
   lists its survivors oldest first. Returns the surviving rows in that
   order. [poll] runs once the groups are counted, once per group and
   every 4,096 comparisons. *)
let prune p ~poll ~orient ~fused ~groups ~group_key =
  let n = p.n in
  let count = Array.make groups 0 in
  for t = 0 to n - 1 do
    count.(p.group.(t)) <- count.(p.group.(t)) + 1
  done;
  (* [rows]: every group's rows, oldest first, from [start.(g)]. *)
  let start = Array.make groups 0 in
  for g = 1 to groups - 1 do
    start.(g) <- start.(g - 1) + count.(g - 1)
  done;
  poll ();
  p.rows <- scratch p.rows n;
  poll ();
  p.merge <- scratch p.merge (Array.fold_left max 0 count / 2);
  let fill = Array.copy start in
  for t = 0 to n - 1 do
    let g = p.group.(t) in
    p.rows.(fill.(g)) <- t;
    fill.(g) <- fill.(g) + 1
  done;
  let kept = Array.make groups [] in
  for g = 0 to groups - 1 do
    if count.(g) > 0 then begin
      poll ();
      (* The group's least candidate survives and dominates every one
         with as many bytes, so only the rest are sorted and swept. *)
      let lo = start.(g) and hi = start.(g) + count.(g) in
      let least = ref p.rows.(lo) in
      for m = lo + 1 to hi - 1 do
        if before p ~poll ~orient ~fused p.rows.(m) !least then
          least := p.rows.(m)
      done;
      let bound = ref p.bytes.(!least) and rest = ref lo in
      for m = lo to hi - 1 do
        let t = p.rows.(m) in
        if p.bytes.(t) < !bound then begin
          p.rows.(!rest) <- t;
          incr rest
        end
      done;
      sort_rows p ~poll ~orient ~fused lo !rest;
      let front = ref [ !least ] in
      for m = lo to !rest - 1 do
        let t = p.rows.(m) in
        if p.bytes.(t) < !bound then begin
          front := t :: !front;
          bound := p.bytes.(t)
        end
      done;
      kept.(g) <- List.sort Int.compare !front
    end
  done;
  let order = Hashtbl.create 32 and seen = Array.make groups false in
  for t = n - 1 downto 0 do
    let g = p.group.(t) in
    if not seen.(g) then begin
      seen.(g) <- true;
      Hashtbl.replace order (group_key g) g
    end
  done;
  Hashtbl.fold (fun _ g acc -> g :: acc) order []
  |> List.concat_map (fun g -> kept.(g))

(* Anytime narrowing: keep the [k] best of the [kept] rows under
   [precedes]. A pruned list keeps one row per (cost, bytes) point of a
   group, and the oriented key fixes the content, so no two of its rows
   tie on the point and the fused key; an unpruned list is newest first.
   Either way the order is the one of cost, node bytes, output
   rotations, the oriented key, the fused key, then position in [kept],
   and the cut is deterministic. *)
let beam_cut p beam ~poll ~orient ~fused kept =
  let len = List.length kept in
  match beam with
  | Some k when len > k ->
    p.rows <- scratch p.rows len;
    p.merge <- scratch p.merge (len / 2);
    List.iteri (fun m t -> p.rows.(m) <- t) kept;
    sort_rows p ~poll ~orient ~fused 0 len;
    List.init k (fun m -> p.rows.(m))
  | _ -> kept

(* The solution of priced row [t]: its step, memory account and step and
   presum lists, summed as the row's price was. *)
let build (p : priced) ~contraction ~flops ~outs ~left ~right per_variant t =
  let vt = per_variant.(p.variant.(t)) in
  let li = p.left.(t) and ri = p.right.(t) and o = p.out.(t) in
  let left_case, f_left = left.cases.(li)
  and right_case, f_right = right.cases.(ri) in
  (* A priced row's cases were legal to consume. *)
  let cl = Option.get (Lazy.force vt.left_consumed.(left.class_of.(li)))
  and cr = Option.get (Lazy.force vt.right_consumed.(right.class_of.(ri))) in
  let lk = left.key_of.(li) and rk = right.key_of.(ri) in
  let terms =
    List.map
      (fun (role, table) ->
        ( role,
          table.(match role with
                 | Variant.Out -> o
                 | Variant.Left -> lk
                 | Variant.Right -> rk) ))
      (Array.to_list vt.rotations)
  in
  let mem =
    List.fold_left
      (fun m words -> Memacct.add_message m words)
      (Memacct.add_resident
         (Memacct.merge (child_mem left_case) (child_mem right_case))
         (cl.resident + cr.resident + vt.out_resident.(o)))
      (List.map (fun (_, (_, words)) -> words) terms
      @ [ cl.redist_words; cr.redist_words ])
  in
  let step =
    {
      Plan.contraction;
      variant = vt.variant;
      fusion_out = outs.(o);
      fusion_left = f_left;
      fusion_right = f_right;
      rotations = List.map (fun (role, (cost, _)) -> (role, cost)) terms;
      redists = List.filter_map (fun c -> c.redist) [ cl; cr ];
      flops;
    }
  in
  {
    prod_dist = Variant.dist_of vt.variant Variant.Out;
    fused = outs.(o);
    cost = p.cost.(t);
    mem;
    out_rots = p.rots.(t);
    steps = child_steps left_case @ child_steps right_case @ [ step ];
    presums =
      child_presums left_case @ child_presums right_case @ cl.own_presums
      @ cr.own_presums;
  }

let memoize f =
  let table = Hashtbl.create 16 in
  fun k ->
    match Hashtbl.find_opt table k with
    | Some v -> v
    | None ->
      let v = f k in
      Hashtbl.add table k v;
      v

(* String keys interned as ranks: equal keys share a rank and ranks order
   as the strings do. Returns each key's rank and the distinct keys by
   rank. *)
let ranks keys =
  let distinct =
    Array.of_list (List.sort_uniq String.compare (Array.to_list keys))
  in
  let index = Hashtbl.create (Array.length distinct) in
  Array.iteri (fun r k -> Hashtbl.replace index k r) distinct;
  (Array.map (Hashtbl.find index) keys, distinct)

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
  let cfg = ctx.cfg in
  let* left_cases = child_cases ctx node l in
  let* right_cases = child_cases ctx node r in
  let rows = Grid.rows cfg.grid and cols = Grid.cols cfg.grid in
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
  let variants = Array.of_list (Variant.all contraction) in
  (* The group and tie-break keys, interned once per node: a group is a
     (content rank, fused rank) pair. *)
  let out_key key = Array.map (fun v -> key (Variant.dist_of v Variant.Out)) in
  let fused_rank, fused_keys = ranks (Array.map fused_key outs) in
  let content_rank, content_keys = ranks (out_key content_key variants) in
  let orient_rank, _ = ranks (out_key orient_key variants) in
  let nf = Array.length fused_keys in
  (* A rotated role's (cost, message words) per key of that role — a
     parent fusion for the output, a side key for an operand — and the
     output's resident words per parent fusion depend on a variant only
     through the role's distribution and axis, which variants share:
     each table is computed once per node. *)
  let masked aref alpha =
    Eqs.masked ctx.eng.ext ~rows ~cols ~alpha ~universe
      ~dims:(Aref.indices aref)
  in
  let rotation =
    memoize (fun (role, alpha, axis) ->
        let key_masks side = Array.map (fun (_, m, _) -> m) side.keys in
        let aref, masks =
          match role with
          | Variant.Out -> (out_aref, out_masks)
          | Variant.Left -> (contraction.Contraction.left, key_masks left)
          | Variant.Right -> (contraction.Contraction.right, key_masks right)
        in
        let m = masked aref alpha in
        Array.map
          (fun mask ->
            ( Eqs.masked_rotate_cost ~rcost:cfg.rcost m ~axis mask,
              Eqs.masked_size m mask ))
          masks)
  and resident =
    memoize (fun alpha ->
        Array.map (Eqs.masked_size (masked out_aref alpha)) out_masks)
  in
  (* Price: every variant's candidates, variants in enumeration order. *)
  let poll () = check_cancel ctx in
  let p = ctx.eng.priced in
  p.high <- Int.max p.high p.n;
  p.n <- 0;
  let per_variant =
    Array.mapi
      (fun v variant ->
        check_cancel ctx;
        let vt =
          variant_terms ctx ~rows ~cols ~universe ~out_masks ~left ~right
            ~rotation ~resident variant
        in
        price p
          ~poll
          ~bytes_per_word:(Memacct.bytes_per_word cfg.params)
          ~limit:(mem_limit cfg)
          ~group_of:
            (Array.map (fun f -> (content_rank.(v) * nf) + f) fused_rank)
          ~left ~right v vt;
        vt)
      variants
  in
  let generated = p.n in
  (* Prune, then build the survivors. Unpruned, every candidate survives,
     newest first. *)
  let orient = orient_rank and fused = fused_rank in
  let kept =
    if ctx.pass.prune then
      prune p ~poll ~orient ~fused
        ~groups:(Array.length content_keys * nf)
        ~group_key:(fun g -> (content_keys.(g / nf), fused_keys.(g mod nf)))
    else List.init generated (fun k -> generated - 1 - k)
  in
  let sols =
    beam_cut p ctx.pass.beam ~poll ~orient ~fused kept
    |> List.map
         (build p ~contraction
            ~flops:(Contraction.flops ctx.eng.ext contraction)
            ~outs ~left ~right per_variant)
  in
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

(* Machine values from the front ends, checked before any constructor
   sees them: rates, sizes and bandwidths must be positive, latencies
   non-negative, and all of them finite (a wire "1e999" reads as
   infinity). The error names the first bad field. *)
let check_machine_fields fields =
  let bad =
    List.find_map
      (fun (name, v, positive) ->
        match v with
        | Some v when not (Float.is_finite v) ->
          Some (Printf.sprintf "%s must be finite, got %g" name v)
        | Some v when positive && v <= 0. ->
          Some (Printf.sprintf "%s must be positive, got %g" name v)
        | Some v when v < 0. ->
          Some (Printf.sprintf "%s must not be negative, got %g" name v)
        | _ -> None)
      fields
  in
  Option.fold ~none:(Ok ()) ~some:Result.error bad

let machine ?fusion_mode ?mem_gb ?mflops ?latency_us ?bandwidth_mbs ?nodes
    ?(intra_latency_us = 1.0) ?(intra_bandwidth_mbs = 1000.0) ~topology ~procs
    () =
  let ( let* ) = Result.bind in
  let* () =
    check_machine_fields
      [
        ("mflops", mflops, true);
        ("mem_gb", mem_gb, true);
        ("bandwidth_mbs", bandwidth_mbs, true);
        ("intra_bandwidth_mbs", Some intra_bandwidth_mbs, true);
        ("latency_us", latency_us, false);
        ("intra_latency_us", Some intra_latency_us, false);
      ]
  in
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

(* [f] on the engine settings shared by every pass of one request. *)
let with_engine ?(memo = true) ?(max_groups = 3) ?cancel ~objective ext f =
  with_store (fun priced ->
      f { ext; objective; memo; cancel; max_groups; priced })

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
    with_engine ?memo ?max_groups ?cancel ~objective:req.objective ext
      (fun eng ->
        let solve pass = solve_shape eng pass req in
        match req.strategy with
        | Exact -> solve exact_pass
        | Beam k -> solve { exact_pass with beam = Some k }
        | Greedy -> first_feasible solve greedy_rungs
        | Anytime -> run_anytime ?on_round eng solve)

let brute_force ext (req : request) =
  match check req with
  | Error _ as e -> e
  | Ok () ->
    with_engine ~memo:false ~objective:req.objective ext (fun eng ->
        solve_shape eng { exact_pass with prune = false } req)

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
    with_engine ?memo ~objective:Comm ext (fun eng ->
        Result.map List.length
          (solve_root ~traced:false eng { exact_pass with beam } cfg tree))

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
