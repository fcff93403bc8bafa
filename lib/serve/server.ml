(* The planning daemon's engine: a bounded request queue in front of a
   team of worker domains, each running one sequential search at a time,
   with an LRU plan cache keyed on the α-renamed content fingerprint.

   Pipeline (DESIGN.md §13): parse → admission (bounded queue, typed
   [overloaded] rejection with a Fault-style exponential Retry-After
   hint) → derivation (parse, opmin, machine and cache key, memoized per
   distinct work item) → cache probe (an entry keeps its rendered plan,
   which a hit needing no α-renaming replies with as is) → search with
   a cooperative deadline token →
   degradation ladder (exact DP on a fraction of the budget, then beam
   search labelled [approximate], then the millisecond greedy seed, then
   [deadline_exceeded]) → view (a [simulate] replay polls the same
   deadline) → reply.
   Admin requests (health/stats/drain) bypass the queue so the daemon
   stays introspectable under saturation. A worker whose request raises
   unexpectedly answers a typed [worker_crashed] error and keeps
   serving — the daemon never dies with a request. *)

open! Import

module Search = Tce_core.Search
module Plan = Tce_core.Plan
module Baselines = Tce_core.Baselines
module Tree = Tce_expr.Tree
module Parser = Tce_expr.Parser
module Problem = Tce_expr.Problem
module Opmin = Tce_opmin.Opmin
module Grid = Tce_grid.Grid
module Params = Tce_netmodel.Params
module Rcost = Tce_netmodel.Rcost
module Topology = Tce_netmodel.Topology
module Extents = Tce_index.Extents
module Index = Tce_index.Index
module Simulate = Tce_machine.Simulate
module Obs = Tce_obs.Obs
module Tce_error = Tce_util.Tce_error

let now () = Unix.gettimeofday ()

(* ---- configuration --------------------------------------------------- *)

type degrade_mode = [ `Auto | `Always | `Never ]

type config = {
  workers : int;
  queue_capacity : int;
  cache_capacity : int;
  default_deadline_ms : float option;
  degrade : degrade_mode;
  debug_ops : bool;
}

let default_config ?(workers = 2) ?(queue_capacity = 32) ?(cache_capacity = 128)
    ?default_deadline_ms ?(search_jobs = 1) ?(degrade = `Auto)
    ?(debug_ops = false) () =
  if workers < 1 then invalid_arg "Server: workers must be >= 1";
  if queue_capacity < 1 then invalid_arg "Server: queue_capacity must be >= 1";
  if search_jobs <> 1 then
    invalid_arg "Server: search_jobs must be 1 (the search is sequential)";
  {
    workers;
    queue_capacity;
    cache_capacity;
    default_deadline_ms;
    degrade;
    debug_ops;
  }

(* The overload Retry-After hint: a 25 ms base doubling per consecutive
   rejection, mirroring the fault layer's [timeout · backoff^(k-1)]
   law. *)
let retry_base_ms = 25.0
let retry_backoff = 2.0

(* ---- server state ---------------------------------------------------- *)

type job = {
  req : Proto.request;
  reply : Json.t -> unit;
  enqueued_at : float;
  deadline_at : float option;  (* absolute wall time; queue wait counts *)
}

(* A cached single-term plan travels with the tree it solved so a hit
   can be renamed onto the request's intermediate names. A cached sum
   plan needs no companion: the sum fingerprint keeps term names in, so
   a hit is byte-identical as stored. Each entry also keeps the plan's
   rendered text, rendered once on the cold path. *)
type cache_entry =
  | Single_entry of Tree.t * Plan.t * string
  | Sum_entry of Plan.sum * string

(* What parse, opmin and [Search.machine] make of a work item, with its
   plan-cache key. *)
type derived = { ext : Extents.t; request : Search.request; key : string }

type t = {
  cfg : config;
  lock : Mutex.t;
  not_empty : Condition.t;
  idle : Condition.t;
  queue : job Queue.t;
  mutable draining : bool;
  mutable closed : bool;
  mutable inflight : int;
  mutable domains : unit Domain.t list;
  cache : (string, cache_entry) Cache.t;
  memo : (Proto.work * int64 option list, derived) Cache.t; (* [memo_key] *)
  (* counters under [lock] *)
  mutable accepted : int;
  mutable rejected : int;
  mutable consecutive_rejections : int;
  mutable completed : int;
  mutable request_errors : int;
  mutable deadline_exceeded : int;
  mutable degraded : int;
  mutable greedy_seeded : int;
  mutable crashes : int;
  mutable ema_service_s : float;
  lat_all : Obs.Hist.t;
  lat_cold : Obs.Hist.t;
  lat_hit : Obs.Hist.t;
}

(* Update counters under [lock], then count the event in [Obs]. *)
let bump t field name =
  Mutex.lock t.lock;
  field t;
  Mutex.unlock t.lock;
  Obs.count name

(* ---- the planning request of a work item ------------------------------ *)

(* Parse → opmin → machine: the work item as one {!Search.request}
   (exact, on the request's fusion mode and objective). Every failure,
   {!Search.check}'s included, is an [invalid_request]. *)
let request_of_work (w : Proto.work) =
  let ( let* ) = Result.bind in
  let expr r = Result.map_error (fun msg -> "expr: " ^ msg) r in
  let* parsed = expr (Parser.parse w.Proto.expr) in
  let* comp = expr (Opmin.optimize_to_computation parsed) in
  let fusion_mode, objective = Baselines.of_mode w.Proto.fusion in
  let problem =
    match comp with
    | Opmin.Single tree -> Search.Tree tree
    | Opmin.Summed se -> Search.Sum se
  in
  let* shape =
    Search.machine ~fusion_mode ?mem_gb:w.Proto.mem_gb ?mflops:w.Proto.mflops
      ?latency_us:w.Proto.latency_us ?bandwidth_mbs:w.Proto.bandwidth_mbs
      ?nodes:w.Proto.nodes ?intra_latency_us:w.Proto.intra_latency_us
      ?intra_bandwidth_mbs:w.Proto.intra_bandwidth_mbs
      ~topology:w.Proto.topology ~procs:w.Proto.procs ()
  in
  let req = Search.request ~objective shape problem in
  let* () = Search.check req in
  Ok (parsed.Problem.extents, req)

(* ---- cache key -------------------------------------------------------- *)

let ext_fingerprint ext =
  String.concat ","
    (List.map
       (fun (i, n) ->
         Printf.sprintf "%s=%d" (Format.asprintf "%a" Index.pp i) n)
       (Extents.bindings ext))

(* The content fingerprint (α-renamed tree, or the whole sum — whose
   "sum|" prefix is foreign to every tree fingerprint, so a sum and any
   one of its terms never collide), the machine, the shape and the
   search settings. A fixed grid keys on its side and per-side rotation
   table; a shape search on the processor count and the topology
   fingerprint instead. *)
let cache_key (w : Proto.work) ~ext (req : Search.request) =
  let cfg = Search.base_config req.Search.shape in
  let shape, network =
    match req.Search.shape with
    | Search.Grid _ ->
      ( Printf.sprintf "side=%d" (Grid.side cfg.Search.grid),
        Rcost.fingerprint cfg.Search.rcost )
    | Search.Shapes { topo; procs; _ } ->
      ( Printf.sprintf "shape=search procs=%d" procs,
        "topo=" ^ Topology.fingerprint topo )
  in
  String.concat "|"
    [
      "v1";
      Proto.fusion_to_string w.Proto.fusion;
      (match req.Search.problem with
      | Search.Tree tree -> Search.tree_fingerprint cfg tree
      | Search.Sum se -> Search.sum_fingerprint se);
      ext_fingerprint ext;
      shape;
      Params.fingerprint cfg.Search.params;
      network;
      (match cfg.Search.mem_limit_bytes with
      | None -> "mem=default"
      | Some b -> Printf.sprintf "mem=%.17g" b);
      Printf.sprintf "redist=%.17g" cfg.Search.redist_factor;
      Printf.sprintf "adf=%b" cfg.Search.allow_distributed_fusion;
    ]

(* exposed for the cache tests *)
let cache_key_of_work w =
  Result.map (fun (ext, req) -> cache_key w ~ext req) (request_of_work w)

(* ---- the work memo ------------------------------------------------------ *)

(* The memo is keyed on the whole work item, so two items that could
   plan apart never share an entry. Structural equality takes [0.0] and
   [-0.0] for one float, yet the key builder prints them apart, so each
   float field also enters the key by its bits. *)
let memo_key (w : Proto.work) =
  ( w,
    List.map
      (Option.map Int64.bits_of_float)
      [
        w.Proto.mem_gb; w.mflops; w.latency_us; w.bandwidth_mbs;
        w.intra_latency_us; w.intra_bandwidth_mbs;
      ] )

(* Parse, opmin, machine and key, once per distinct work item: a repeat
   is answered from the memo. Only completed derivations are stored; an
   invalid item is derived afresh each time, and one that raises leaves
   nothing behind. *)
let derive t w =
  let mk = memo_key w in
  match Cache.find t.memo mk with
  | Some d -> Ok d
  | None ->
    Result.map
      (fun (ext, request) ->
        let d = { ext; request; key = cache_key w ~ext request } in
        Cache.add t.memo mk d;
        d)
      (request_of_work w)

(* ---- the plan cache ----------------------------------------------------- *)

let plan_text ~ext = function
  | Search.Tree_plan p -> Format.asprintf "%a" Plan.pp p
  | Search.Sum_plan s -> Format.asprintf "%a" (Plan.pp_sum ext) s

(* A hit on a tree entry may carry different intermediate names: it is
   renamed onto this request's tree and rendered afresh. When no name
   changes, [rename_plan] hands back the cached plan itself, and the hit
   replies with the stored text, as a sum hit always does. The
   pathological leaf-clash case returns [None] and the request
   recomputes, as the DP's own memo does. *)
let cache_find t { ext; request; key } =
  let hit =
    match (Cache.find t.cache key, request.Search.problem) with
    | Some (Sum_entry (s, text)), Search.Sum _ -> Some (Search.Sum_plan s, text)
    | Some (Single_entry (ctree, plan, text)), Search.Tree tree ->
      Option.map
        (fun p ->
          let outcome = Search.Tree_plan p in
          (outcome, if p == plan then text else plan_text ~ext outcome))
        (Search.rename_plan ~ext ~cached:ctree ~current:tree plan)
    | _ -> None
  in
  Obs.count
    (if Option.is_some hit then "serve.cache_hits" else "serve.cache_misses");
  hit

(* Only exact plans enter the cache: a later hit must be byte-identical
   to a fresh exact search. *)
let cache_add t { request; key; _ } outcome text =
  let entry =
    match (request.Search.problem, outcome) with
    | Search.Tree tree, Search.Tree_plan plan -> Single_entry (tree, plan, text)
    | _, Search.Sum_plan s -> Sum_entry (s, text)
    | Search.Sum _, Search.Tree_plan _ -> assert false
  in
  let before = (Cache.stats t.cache).Cache.evictions in
  Cache.add t.cache key entry;
  let after = (Cache.stats t.cache).Cache.evictions in
  if after > before then Obs.count ~by:(after - before) "serve.cache_evictions"

(* ---- the degradation ladder ------------------------------------------- *)

(* One ladder for every request, keyed on strategy: each rung runs the
   request under its strategy until the cutoff at [share] of the budget
   still left when it starts, so earlier rungs leave reserve for later
   ones. The beam rung gets most of what the exact rung left but not all
   of it: if it ran all the way to the deadline, the greedy rung would be
   cancelled at its first checkpoint and could never return a plan. *)
let rungs : degrade_mode -> (Search.strategy * float) list = function
  | `Never -> [ (Search.Exact, 1.0) ]
  | `Always -> [ (Search.Beam 4, 0.8); (Search.Greedy, 1.0) ]
  | `Auto -> [ (Search.Exact, 0.6); (Search.Beam 4, 0.8); (Search.Greedy, 1.0) ]

(* Returns the outcome plus whether it is approximate (not exact, so not
   cacheable), or raises [Tce_error.Error (Deadline_exceeded _)] when
   even the last rung cannot finish inside the budget. Without a
   deadline the first rung runs to completion. *)
let ladder t ext (req : Search.request) ~deadline_at =
  let run strategy cancel =
    Result.map
      (fun o -> (o, strategy <> Search.Exact))
      (Search.plan ?cancel ext { req with Search.strategy })
  in
  let rec go = function
    | [] -> assert false
    | (strategy, share) :: rest -> (
      match deadline_at with
      | None -> run strategy None
      | Some d -> (
        let t0 = now () in
        let cutoff = t0 +. (share *. (d -. t0)) in
        match run strategy (Some (fun () -> now () > cutoff)) with
        | r -> r
        | exception Tce_error.Error (Tce_error.Deadline_exceeded _)
          when rest <> [] ->
          if strategy = Search.Exact then
            bump t (fun t -> t.degraded <- t.degraded + 1) "serve.degraded";
          if fst (List.hd rest) = Search.Greedy then
            bump t
              (fun t -> t.greedy_seeded <- t.greedy_seeded + 1)
              "serve.greedy_seeded";
          go rest))
  in
  go (rungs t.cfg.degrade)

(* ---- request execution ------------------------------------------------ *)

let invalid ~id msg = Proto.error ~id ~kind:"invalid_request" ~message:msg []

let outcome_fields ~ext outcome ~text ~cached ~approximate =
  let num f = Json.Num f and count n = Json.Num (float_of_int n) in
  [ ("cached", Json.Bool cached); ("approximate", Json.Bool approximate) ]
  @
  match outcome with
  | Search.Tree_plan p ->
    [
      ("comm_seconds", num (Plan.comm_cost p));
      ("compute_seconds", num (Plan.compute_seconds p));
      ("total_seconds", num (Plan.total_seconds p));
      ("flops", count p.Plan.flops);
      ("mem_per_node_bytes", num (Plan.mem_per_node_bytes p));
      ("steps", count (List.length p.Plan.steps));
      ("plan", Json.Str text);
    ]
  | Search.Sum_plan s ->
    [
      ("sum", Json.Bool true);
      ("comm_seconds", num s.Plan.sum_comm_cost);
      ("compute_seconds", num (Plan.sum_compute_seconds s));
      ("total_seconds", num (Plan.sum_total_seconds s));
      ("flops", count s.Plan.sum_flops);
      ("mem_per_node_bytes", num (Plan.sum_mem_per_node_bytes ext s));
      ("terms", count (List.length s.Plan.terms));
      ("shared_values", count (List.length s.Plan.shared));
      ("plan", Json.Str text);
    ]

(* Replay on the simulated cluster, priced on the request's topology.
   A sum's sub-plans execute one after another and its accumulation is
   local, so the simulated times are additive: Σ over shared and term
   plans, plus the accumulation's compute time. The request's deadline
   cancels the replay as it cancels the search. *)
let simulated ~ext ~deadline_at (req : Search.request) outcome =
  let params = (Search.base_config req.Search.shape).Search.params in
  let topo =
    match req.Search.shape with
    | Search.Shapes { topo; _ } -> Some topo
    | Search.Grid _ -> None
  in
  let cancel = Option.map (fun d () -> now () > d) deadline_at in
  let replay = Simulate.run_plan ?topo ?cancel params ext in
  let ( let* ) = Result.bind in
  match outcome with
  | Search.Tree_plan plan ->
    let* t = replay plan in
    Ok
      ( t.Simulate.comm_seconds,
        t.Simulate.compute_seconds,
        t.Simulate.total_seconds )
  | Search.Sum_plan s ->
    let* comm, compute =
      List.fold_left
        (fun acc p ->
          let* comm, compute = acc in
          let* t = replay p in
          Ok
            ( comm +. t.Simulate.comm_seconds,
              compute +. t.Simulate.compute_seconds ))
        (Ok (0.0, 0.0))
        (List.map (fun (_, _, p) -> p) s.Plan.shared
        @ List.map snd s.Plan.terms)
    in
    let compute =
      compute
      +. Params.compute_time params
           ~flops:
             (float_of_int s.Plan.acc_flops
             /. float_of_int (Grid.procs s.Plan.sum_grid))
    in
    Ok (comm, compute, comm +. compute)

(* The optimize/simulate/validate views of a planned request. A shape
   search also reports the grid it chose. A replay cut by the deadline
   raises the typed error, so it is answered as a cancelled search is. *)
let render ~id ~view ~ext ~deadline_at (req : Search.request) outcome ~text
    ~origin ~approximate =
  let base =
    (match (req.Search.shape, outcome) with
    | Search.Grid _, _ -> []
    | Search.Shapes _, Search.Tree_plan { Plan.grid; _ }
    | Search.Shapes _, Search.Sum_plan { Plan.sum_grid = grid; _ } ->
      [ ("grid", Json.Str (Format.asprintf "%a" Grid.pp grid)) ])
    @ outcome_fields ~ext outcome ~text ~cached:(origin = `Hit) ~approximate
  in
  match view with
  | `Optimize -> (Proto.ok ~id base, origin)
  | `Simulate -> (
    match simulated ~ext ~deadline_at req outcome with
    | Ok (comm, compute, total) ->
      ( Proto.ok ~id
          (base
          @ [
              ( "simulated",
                Json.Obj
                  [
                    ("comm_seconds", Json.Num comm);
                    ("compute_seconds", Json.Num compute);
                    ("total_seconds", Json.Num total);
                  ] );
            ]),
        origin )
    | Error (Tce_error.Deadline_exceeded _ as e) -> Tce_error.raise_err e
    | Error e ->
      ( Proto.error ~id ~kind:(Tce_error.kind e)
          ~message:(Tce_error.to_string e) [],
        `Other ))
  | `Validate -> (
    let mem_limit_bytes =
      (Search.base_config req.Search.shape).Search.mem_limit_bytes
    in
    match
      match outcome with
      | Search.Tree_plan plan -> Plan.validate ?mem_limit_bytes plan
      | Search.Sum_plan s -> Plan.validate_sum ?mem_limit_bytes ~ext s
    with
    | Ok () -> (Proto.ok ~id (("valid", Json.Bool true) :: base), origin)
    | Error msg ->
      ( Proto.ok ~id
          (("valid", Json.Bool false) :: ("violation", Json.Str msg) :: base),
        origin ))

(* Handle one work request (optimize/simulate/validate): derivation,
   cache probe, ladder on a miss, render the plan once, insert-if-exact,
   view. Returns the response and whether the plan came from the
   cache. *)
let handle_work t ~id ~deadline_at (w : Proto.work) ~view =
  match derive t w with
  | Error msg -> (invalid ~id msg, `Other)
  | Ok ({ ext; request = req; _ } as d) -> (
    let searched =
      match cache_find t d with
      | Some (outcome, text) -> Ok (outcome, text, false, `Hit)
      | None ->
        Result.map
          (fun (outcome, approximate) ->
            let text = plan_text ~ext outcome in
            if not approximate then cache_add t d outcome text;
            (outcome, text, approximate, `Cold))
          (ladder t ext req ~deadline_at)
    in
    match searched with
    | Error msg -> (Proto.error ~id ~kind:"no_plan" ~message:msg [], `Other)
    | Ok (outcome, text, approximate, origin) ->
      render ~id ~view ~ext ~deadline_at req outcome ~text ~origin
        ~approximate)

(* ---- admin responses -------------------------------------------------- *)

let queue_depth t =
  Mutex.lock t.lock;
  let n = Queue.length t.queue in
  Mutex.unlock t.lock;
  n

let health_json t ~id =
  Mutex.lock t.lock;
  let depth = Queue.length t.queue in
  let draining = t.draining in
  let crashes = t.crashes in
  let inflight = t.inflight in
  Mutex.unlock t.lock;
  Proto.ok ~id
    [
      ("healthy", Json.Bool true);
      ("queue_depth", Json.Num (float_of_int depth));
      ("inflight", Json.Num (float_of_int inflight));
      ("workers", Json.Num (float_of_int t.cfg.workers));
      ("draining", Json.Bool draining);
      ("worker_crashes", Json.Num (float_of_int crashes));
    ]

let hist_json h =
  let ms f = f *. 1e3 in
  Json.Obj
    [
      ("count", Json.Num (float_of_int (Obs.Hist.count h)));
      ("mean_ms", Json.Num (ms (Obs.Hist.mean h)));
      ("p50_ms", Json.Num (ms (Obs.Hist.percentile h 50.0)));
      ("p99_ms", Json.Num (ms (Obs.Hist.percentile h 99.0)));
      ("max_ms", Json.Num (ms (Obs.Hist.max_value h)));
    ]

let stats_json t ~id =
  let c = Cache.stats t.cache in
  Mutex.lock t.lock;
  let fields =
    [
      ("queue_depth", Json.Num (float_of_int (Queue.length t.queue)));
      ("inflight", Json.Num (float_of_int t.inflight));
      ("accepted", Json.Num (float_of_int t.accepted));
      ("rejected", Json.Num (float_of_int t.rejected));
      ("completed", Json.Num (float_of_int t.completed));
      ("request_errors", Json.Num (float_of_int t.request_errors));
      ("deadline_exceeded", Json.Num (float_of_int t.deadline_exceeded));
      ("degraded", Json.Num (float_of_int t.degraded));
      ("greedy_seeded", Json.Num (float_of_int t.greedy_seeded));
      ("worker_crashes", Json.Num (float_of_int t.crashes));
      ("ema_service_ms", Json.Num (t.ema_service_s *. 1e3));
      ( "cache",
        Json.Obj
          [
            ("hits", Json.Num (float_of_int c.Cache.hits));
            ("misses", Json.Num (float_of_int c.Cache.misses));
            ("evictions", Json.Num (float_of_int c.Cache.evictions));
            ("entries", Json.Num (float_of_int c.Cache.entries));
          ] );
      ( "latency",
        Json.Obj
          [
            ("all", hist_json t.lat_all);
            ("cold", hist_json t.lat_cold);
            ("cache_hit", hist_json t.lat_hit);
          ] );
    ]
  in
  Mutex.unlock t.lock;
  Proto.ok ~id fields

(* ---- workers ----------------------------------------------------------- *)

let safe_reply (job : job) json = try job.reply json with _ -> ()

let record_latency t job ~started ~origin ~failed =
  let finished = now () in
  let total = finished -. job.enqueued_at in
  let service = finished -. started in
  Mutex.lock t.lock;
  if failed then t.request_errors <- t.request_errors + 1
  else t.completed <- t.completed + 1;
  t.ema_service_s <-
    (if t.ema_service_s = 0.0 then service
     else (0.2 *. service) +. (0.8 *. t.ema_service_s));
  Mutex.unlock t.lock;
  Obs.Hist.add t.lat_all total;
  (match origin with
  | `Hit -> Obs.Hist.add t.lat_hit total
  | `Cold -> Obs.Hist.add t.lat_cold total
  | `Other -> ())

let process t (job : job) =
  let id = job.req.Proto.id in
  let started = now () in
  let expired =
    match job.deadline_at with Some d -> started > d | None -> false
  in
  if expired then begin
    bump t
      (fun t -> t.deadline_exceeded <- t.deadline_exceeded + 1)
      "serve.deadline_exceeded";
    safe_reply job
      (Proto.deadline_exceeded ~id ~where:"queue"
         ~elapsed_ms:((started -. job.enqueued_at) *. 1e3))
  end
  else
    let elapsed_ms () = (now () -. job.enqueued_at) *. 1e3 in
    match
      match job.req.Proto.op with
      | Proto.Optimize w ->
        handle_work t ~id ~deadline_at:job.deadline_at w ~view:`Optimize
      | Proto.Simulate w ->
        handle_work t ~id ~deadline_at:job.deadline_at w ~view:`Simulate
      | Proto.Validate w ->
        handle_work t ~id ~deadline_at:job.deadline_at w ~view:`Validate
      | Proto.Debug_sleep ms ->
        Unix.sleepf (ms /. 1e3);
        (Proto.ok ~id [ ("slept_ms", Json.Num ms) ], `Other)
      | Proto.Debug_crash -> failwith "injected worker crash (debug_crash)"
      | Proto.Health -> (health_json t ~id, `Other)
      | Proto.Stats -> (stats_json t ~id, `Other)
      | Proto.Drain ->
        (* Drain is normally answered at admission; a queued one (via
           [call]) just acknowledges. *)
        (Proto.ok ~id [ ("draining", Json.Bool true) ], `Other)
    with
    | resp, origin ->
      let failed =
        match resp with Json.Obj f -> List.assoc_opt "status" f <> Some (Json.Str "ok") | _ -> false
      in
      record_latency t job ~started ~origin ~failed;
      safe_reply job resp
    | exception Tce_error.Error (Tce_error.Deadline_exceeded { where }) ->
      bump t
        (fun t -> t.deadline_exceeded <- t.deadline_exceeded + 1)
        "serve.deadline_exceeded";
      safe_reply job
        (Proto.deadline_exceeded ~id ~where ~elapsed_ms:(elapsed_ms ()))
    | exception Tce_error.Error e ->
      record_latency t job ~started ~origin:`Other ~failed:true;
      safe_reply job
        (Proto.error ~id ~kind:(Tce_error.kind e)
           ~message:(Tce_error.to_string e) [])
    | exception ex ->
      (* Crash isolation: a typed reply, and this worker and its
         siblings keep going. A request holds no state beyond its own
         search, so there is nothing to rebuild; [respawned] keeps the
         reply's wire shape and says the worker serves on. *)
      bump t
        (fun t ->
          t.crashes <- t.crashes + 1;
          t.request_errors <- t.request_errors + 1)
        "serve.worker_crashes";
      safe_reply job
        (Proto.error ~id ~kind:"worker_crashed"
           ~message:(Printexc.to_string ex)
           [ ("respawned", Json.Bool true) ])

let worker_loop t =
  let running = ref true in
  while !running do
    Mutex.lock t.lock;
    while Queue.is_empty t.queue && not t.draining && not t.closed do
      Condition.wait t.not_empty t.lock
    done;
    if Queue.is_empty t.queue then begin
      (* draining or closed, nothing left: exit *)
      running := false;
      Mutex.unlock t.lock
    end
    else begin
      let job = Queue.pop t.queue in
      t.inflight <- t.inflight + 1;
      Mutex.unlock t.lock;
      Fun.protect
        ~finally:(fun () ->
          Mutex.lock t.lock;
          t.inflight <- t.inflight - 1;
          if Queue.is_empty t.queue && t.inflight = 0 then
            Condition.broadcast t.idle;
          Mutex.unlock t.lock)
        (fun () -> process t job)
    end
  done

(* ---- lifecycle --------------------------------------------------------- *)

let create cfg =
  let t =
    {
      cfg;
      lock = Mutex.create ();
      not_empty = Condition.create ();
      idle = Condition.create ();
      queue = Queue.create ();
      draining = false;
      closed = false;
      inflight = 0;
      domains = [];
      cache = Cache.create ~capacity:cfg.cache_capacity;
      memo = Cache.create ~capacity:cfg.cache_capacity;
      accepted = 0;
      rejected = 0;
      consecutive_rejections = 0;
      completed = 0;
      request_errors = 0;
      deadline_exceeded = 0;
      degraded = 0;
      greedy_seeded = 0;
      crashes = 0;
      ema_service_s = 0.0;
      lat_all = Obs.Hist.create ();
      lat_cold = Obs.Hist.create ();
      lat_hit = Obs.Hist.create ();
    }
  in
  t.domains <-
    List.init cfg.workers (fun _ -> Domain.spawn (fun () -> worker_loop t));
  t

let retry_hint_ms t ~depth =
  (* Mirrors the fault layer's retry law (timeout · backoff^(k-1)): the
     base grows exponentially with consecutive rejections, scaled by the
     observed service time and the queue ahead of the caller. *)
  let k = max 1 t.consecutive_rejections in
  let backoff = retry_backoff ** float_of_int (k - 1) in
  let service_ms = max 1.0 (t.ema_service_s *. 1e3) in
  Float.min 60_000.0
    (Float.max (retry_base_ms *. backoff)
       (service_ms *. float_of_int (depth + 1)))

let submit t (req : Proto.request) ~reply =
  let id = req.Proto.id in
  match req.Proto.op with
  | Proto.Health -> reply (health_json t ~id)
  | Proto.Stats -> reply (stats_json t ~id)
  | Proto.Drain ->
    Mutex.lock t.lock;
    t.draining <- true;
    Condition.broadcast t.not_empty;
    while not (Queue.is_empty t.queue && t.inflight = 0) do
      Condition.wait t.idle t.lock
    done;
    Mutex.unlock t.lock;
    reply (Proto.ok ~id [ ("drained", Json.Bool true) ])
  | (Proto.Debug_sleep _ | Proto.Debug_crash) when not t.cfg.debug_ops ->
    reply (invalid ~id "debug ops are disabled (start with --debug-ops)")
  | Proto.Optimize _ | Proto.Simulate _ | Proto.Validate _
  | Proto.Debug_sleep _ | Proto.Debug_crash ->
    Mutex.lock t.lock;
    if t.draining || t.closed then begin
      Mutex.unlock t.lock;
      reply
        (Proto.error ~id ~kind:"draining"
           ~message:"server is draining; no new requests admitted" [])
    end
    else if Queue.length t.queue >= t.cfg.queue_capacity then begin
      t.rejected <- t.rejected + 1;
      t.consecutive_rejections <- t.consecutive_rejections + 1;
      let depth = Queue.length t.queue in
      let hint = retry_hint_ms t ~depth in
      Mutex.unlock t.lock;
      Obs.count "serve.rejected";
      reply (Proto.overloaded ~id ~queue_depth:depth ~retry_after_ms:hint)
    end
    else begin
      let enqueued_at = now () in
      let deadline_ms =
        match req.Proto.deadline_ms with
        | Some ms -> Some ms
        | None -> t.cfg.default_deadline_ms
      in
      let deadline_at =
        Option.map (fun ms -> enqueued_at +. (ms /. 1e3)) deadline_ms
      in
      t.accepted <- t.accepted + 1;
      t.consecutive_rejections <- 0;
      Queue.push { req; reply; enqueued_at; deadline_at } t.queue;
      Condition.signal t.not_empty;
      Mutex.unlock t.lock;
      Obs.count "serve.accepted"
    end

let submit_line t line ~reply =
  let reply_json json = reply (Proto.to_line json) in
  match Proto.parse_request line with
  | Error (`Parse msg) ->
    reply_json (Proto.error ~id:Json.Null ~kind:"parse_error" ~message:msg []);
    false
  | Error (`Invalid (id, msg)) ->
    reply_json (invalid ~id msg);
    false
  | Ok req ->
    submit t req ~reply:reply_json;
    req.Proto.op = Proto.Drain

let call t (req : Proto.request) =
  let lock = Mutex.create () in
  let cond = Condition.create () in
  let slot = ref None in
  submit t req ~reply:(fun json ->
      Mutex.lock lock;
      slot := Some json;
      Condition.signal cond;
      Mutex.unlock lock);
  Mutex.lock lock;
  while !slot = None do
    Condition.wait cond lock
  done;
  Mutex.unlock lock;
  Option.get !slot

let call_line t line =
  let lock = Mutex.create () in
  let cond = Condition.create () in
  let slot = ref None in
  ignore
    (submit_line t line ~reply:(fun s ->
         Mutex.lock lock;
         slot := Some s;
         Condition.signal cond;
         Mutex.unlock lock)
      : bool);
  Mutex.lock lock;
  while !slot = None do
    Condition.wait cond lock
  done;
  Mutex.unlock lock;
  Option.get !slot

let drain t =
  ignore
    (call t { Proto.id = Json.Null; op = Proto.Drain; deadline_ms = None }
      : Json.t)

let close t =
  Mutex.lock t.lock;
  t.draining <- true;
  t.closed <- true;
  Condition.broadcast t.not_empty;
  let domains = t.domains in
  t.domains <- [];
  Mutex.unlock t.lock;
  List.iter Domain.join domains

type stats = {
  queue_depth : int;
  accepted : int;
  rejected : int;
  completed : int;
  request_errors : int;
  deadline_exceeded : int;
  degraded : int;
  greedy_seeded : int;
  worker_crashes : int;
  cache : Cache.stats;
}

let stats (t : t) =
  let cache = Cache.stats t.cache in
  Mutex.lock t.lock;
  let s =
    {
      queue_depth = Queue.length t.queue;
      accepted = t.accepted;
      rejected = t.rejected;
      completed = t.completed;
      request_errors = t.request_errors;
      deadline_exceeded = t.deadline_exceeded;
      degraded = t.degraded;
      greedy_seeded = t.greedy_seeded;
      worker_crashes = t.crashes;
      cache;
    }
  in
  Mutex.unlock t.lock;
  s
