(* serve-mix: the planning daemon's engine in-process (one worker domain,
   sequential search), driven as a closed loop by one client on the main
   thread that sends its next request when the last one is answered.

   The mix is synthetic: no recorded daemon traffic exists to derive it
   from, so the shares are not claimed to match any real client. Each
   share is there for the path it exercises. Every block of 20
   requests, in a seeded order, holds:

   - 13 repeats from a hot set of 6 CCSD problems: the hit path (parse,
     fingerprint, cache read);
   - 4 cold optimize requests on fresh extents: a two-term sum, two
     single CCSD terms and a node-topology shape search. This is the
     miss and evict path: search, then a cache insert; the cache holds
     16 entries, fewer than the cold keys, so entries are evicted;
   - 2 simulate requests on hot problems: the simulate path;
   - 1 malformed line from a fixed set: the typed-error path.

   Hits are mostly parse and fingerprint cost, misses mostly search plus
   cache insert and evict, so a change that speeds one path at the
   other's cost shows here. The seed draws the hot-set extents, where
   the cold keys start in their cycle and the order within each block. *)

open Tce
open Harness

let ccsd_text ~a ~b ~c ~d ~e ~f ~i ~j ~k ~l =
  Printf.sprintf
    "extents a=%d, b=%d, c=%d, d=%d, e=%d, f=%d, i=%d, j=%d, k=%d, l=%d\n\
     T1[b,c,d,f] = sum[e,l] B[b,e,f,l] * D[c,d,e,l]\n\
     T2[b,c,j,k] = sum[d,f] T1[b,c,d,f] * C[d,f,j,k]\n\
     S[a,b,i,j] = sum[c,k] T2[b,c,j,k] * A[a,c,i,k]\n"
    a b c d e f i j k l

(* A two-term sum whose terms both contract the same P·Q subproduct, so
   the sum optimizer finds a subtree shared across the terms. *)
let sum_text ~o ~x ~c =
  Printf.sprintf
    "extents o1=%d, o2=%d, x=%d, c=%d\n\
     E[o1,o2] = sum[x,c] P[o1,c] * Q[c,x] * R[x,o2] - 0.5 * sum[x,c] \
     P[o1,c] * Q[c,x] * R2[x,o2]\n"
    o o x c

type request =
  | Hot of int
  | Simulate of int
  | Cold of [ `Single | `Sum | `Node ]
  | Malformed

let kind_name = function
  | Hot _ -> "hit"
  | Simulate _ -> "simulate"
  | Cold `Single -> "cold-single"
  | Cold `Sum -> "cold-sum"
  | Cold `Node -> "cold-node"
  | Malformed -> "malformed"

(* Planted malformed lines and the typed error each must get back. *)
let malformed =
  [|
    ({|{"id": 1, "op": "optimize", "expr": |}, "parse_error");
    ({|{"id": 2, "op": "optimize", "procs": 4}|}, "invalid_request");
    ({|{"id": 3, "op": "frobnicate"}|}, "invalid_request");
    ( {|{"id": 4, "op": "optimize", "procs": 4, "expr": "extents a=4\nS[a] = = A[a]"}|},
      "invalid_request" );
    ( {|{"id": 5, "op": "optimize", "procs": 5, "expr": "extents a=8, b=8, c=8\nC[a,c] = sum[b] A[a,b] * B[b,c]"}|},
      "invalid_request" );
  |]

let block =
  List.init 13 (fun k -> Hot (k mod 6))
  @ [ Simulate 0; Simulate 1; Malformed ]
  @ [ Cold `Sum; Cold `Single; Cold `Single; Cold `Node ]

(* More than the cache's 16 entries. *)
let cold_keys = 64

let line ?(extra = []) ~id ~op ~procs expr =
  Json.to_string
    (Json.Obj
       ([
          ("id", Json.Num (float_of_int id));
          ("op", Json.Str op);
          ("expr", Json.Str expr);
          ("procs", Json.Num (float_of_int procs));
        ]
       @ extra))

let field name json = Option.value ~default:Json.Null (Json.member name json)

let setup ~seed ~host:_ =
  let rng = Prng.create ~seed in
  let pick lo hi = lo + Prng.int rng ~bound:(hi - lo + 1) in
  (* One template for the whole hot set, so hits cost the same and the
     median request lands inside one homogeneous band. *)
  let hot =
    Array.init 6 (fun _ ->
        ( ccsd_text ~a:(pick 24 48) ~b:(pick 24 48) ~c:(pick 24 48) ~d:(pick 24 48)
            ~e:(pick 8 16) ~f:(pick 8 16) ~i:(pick 6 12) ~j:(pick 6 12)
            ~k:(pick 6 12) ~l:(pick 6 12),
          16 ))
  in
  let server =
    Server.create
      (Server.default_config ~workers:1 ~queue_capacity:8 ~cache_capacity:16
         ~search_jobs:1 ())
  in
  let next_id = ref 0 in
  let fresh_id () = incr next_id; !next_id in
  (* Warm the hot set; its cold plans are what every later hit must
     reproduce byte for byte. *)
  let hot_plans =
    Array.map
      (fun (expr, procs) ->
        let resp =
          Json.parse_exn
            (Server.call_line server (line ~id:(fresh_id ()) ~op:"optimize" ~procs expr))
        in
        match field "plan" resp with
        | Json.Str p -> p
        | _ -> failwith ("serve-mix: hot problem did not plan: " ^ Json.to_string resp))
      hot
  in
  (* Cold keys differ in one extent, set by a counter that cycles over
     [cold_keys] values and starts where the seed puts it. Every other
     extent is fixed, so a cold request's search work stays in one fixed
     range however long the run. The cycle is longer than the cache, so
     a key has been evicted before it comes back. *)
  let cold_count = ref seed in
  let cold_line cls =
    incr cold_count;
    let n = !cold_count mod cold_keys in
    match cls with
    | `Single ->
      line ~id:(fresh_id ()) ~op:"optimize" ~procs:16
        (ccsd_text ~a:(240 + n) ~b:400 ~c:440 ~d:480 ~e:56 ~f:64 ~i:24 ~j:28
           ~k:32 ~l:32)
    | `Sum ->
      line ~id:(fresh_id ()) ~op:"optimize" ~procs:16
        (sum_text ~o:(64 + n) ~x:96 ~c:128)
    | `Node ->
      line ~id:(fresh_id ()) ~op:"optimize" ~procs:4
        ~extra:[ ("topology", Json.Str "node"); ("nodes", Json.Num 2.) ]
        (ccsd_text ~a:(96 + n) ~b:128 ~c:128 ~d:128 ~e:24 ~f:24 ~i:12 ~j:12
           ~k:12 ~l:12)
  in
  let pending = ref [] in
  let next_request () =
    if !pending = [] then pending := Prng.shuffle rng block;
    let r = List.hd !pending in
    pending := List.tl !pending;
    r
  in
  let malformed_k = ref 0 in
  (* Untraced latencies by request kind. *)
  let lat = Hashtbl.create 4 in
  (* The layers a request passes through, called again from the bench
     side (outside the timed call) so each gets its own span. *)
  let side_calls l =
    match span "proto.parse_request" (fun () -> Proto.parse_request l) with
    | Ok { Proto.op = Proto.Optimize w | Proto.Simulate w | Proto.Validate w; _ } ->
      ignore (span "server.cache_key" (fun () -> Server.cache_key_of_work w));
      (match span "parser.parse" (fun () -> Parser.parse w.Proto.expr) with
      | Ok problem ->
        ignore (span "opmin.optimize" (fun () -> Opmin.optimize_to_computation problem))
      | Error _ -> ())
    | Ok _ | Error _ -> ()
  in
  let run_op () =
    let req = next_request () in
    let l, expect =
      match req with
      | Hot h ->
        let expr, procs = hot.(h) in
        (line ~id:(fresh_id ()) ~op:"optimize" ~procs expr, `Hit h)
      | Simulate h ->
        let expr, procs = hot.(h) in
        (line ~id:(fresh_id ()) ~op:"simulate" ~procs expr, `Simulated h)
      | Cold cls -> (cold_line cls, `Cold)
      | Malformed ->
        let l, kind = malformed.(!malformed_k mod Array.length malformed) in
        incr malformed_k;
        (l, `Error kind)
    in
    let seconds, resp =
      timed (fun () -> span "server.call_line" (fun () -> Server.call_line server l))
    in
    if Obs.enabled () then side_calls l
    else begin
      let k = kind_name req in
      Hashtbl.replace lat k (seconds :: Option.value ~default:[] (Hashtbl.find_opt lat k))
    end;
    let resp = Json.parse_exn resp in
    let str name = match field name resp with Json.Str s -> s | _ -> "" in
    let ok =
      match expect with
      | `Hit h ->
        str "status" = "ok" && field "cached" resp = Json.Bool true
        && str "plan" = hot_plans.(h)
      | `Simulated h ->
        str "status" = "ok" && field "cached" resp = Json.Bool true
        && str "plan" = hot_plans.(h)
        && field "simulated" resp <> Json.Null
      | `Cold ->
        str "status" = "ok" && field "cached" resp = Json.Bool false
        && field "approximate" resp = Json.Bool false
      | `Error kind ->
        str "status" = "error"
        && (match field "error" resp with
           | Json.Null -> false
           | e -> field "kind" e = Json.Str kind)
    in
    if not ok then
      Format.printf "serve-mix: unexpected %s response: %s@." (kind_name req)
        (Json.to_string resp);
    { seconds; ok; kind = kind_name req }
  in
  let layers tr =
    let st = Server.stats server in
    let c = st.Server.cache in
    let p50 kinds =
      match List.concat_map (fun k -> Option.value ~default:[] (Hashtbl.find_opt lat k)) kinds with
      | _ :: _ as xs -> 1e3 *. Benchkit.Stats.median xs
      | [] -> 0.
    in
    search_layers tr ~dp:[ "search.solve" ]
    @ [
        ("parser.parse_us", mean_self_us tr [ "parser.parse" ]);
        ("opmin.optimize_us", mean_self_us tr [ "opmin.optimize" ]);
        ("proto.parse_us", mean_self_us tr [ "proto.parse_request" ]);
        ("server.cache_key_us", mean_self_us tr [ "server.cache_key" ]);
        (* Request time outside the search itself: queue hand-off,
           cache, rendering, simulation. *)
        ("server.overhead_ms", mean_self_us tr [ "server.call_line" ] /. 1e3);
        ( "server.cache_hit_ratio",
          float_of_int c.Plancache.hits /. float_of_int (max 1 (c.Plancache.hits + c.Plancache.misses)) );
        ("server.cache_evictions", float_of_int c.Plancache.evictions);
        ("server.degraded", float_of_int st.Server.degraded);
        ("server.rejected", float_of_int st.Server.rejected);
        ("server.simulate_ms_p50", p50 [ "simulate" ]);
        ("serve.hit_ms_p50", p50 [ "hit" ]);
        ("serve.cold_ms_p50", p50 [ "cold-single"; "cold-sum"; "cold-node" ]);
        ( "comm_model_s",
          Array.fold_left
            (fun acc (expr, procs) ->
              let resp =
                Json.parse_exn
                  (Server.call_line server
                     (line ~id:(fresh_id ()) ~op:"optimize" ~procs expr))
              in
              acc +. Option.value ~default:0. (Json.to_float (field "comm_seconds" resp)))
            0. hot );
      ]
  in
  let teardown () =
    Server.drain server;
    Server.close server
  in
  { run_op; layers; teardown }

let workload = { name = "serve-mix"; warmup_ops = 0; setup }
