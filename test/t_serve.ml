(* The planning daemon: JSON codec, plan cache, admission control,
   deadlines, degradation and crash isolation — all in-process through
   Server.call_line, the same engine bin/tce_serve fronts on stdio. *)

open Tce
open Helpers

(* ---------------- fixtures ---------------- *)

let matmul_expr =
  "extents a=16, b=16, c=16\nC[a,c] = sum[b] A[a,b] * B[b,c]\n"

(* A two-contraction chain, so the problem has a nameable intermediate. *)
let chain_expr ~t ~s =
  Printf.sprintf
    "extents a=6, b=6, c=6, d=6\n%s[a,d] = sum[b] A[a,b] * B[b,d]\n%s[a,c] = sum[d] %s[a,d] * C[d,c]\n"
    t s t

(* Two terms sharing the intermediate M = P·Q, so the sum optimizer has
   a real cross-term CSE to find. *)
let sum_expr =
  "extents a=8, b=8, c=8, d=8\n\
   M[a,b] = sum[c] P[a,c] * Q[c,b]\n\
   E[a,d] = sum[b] M[a,b] * R[b,d] + 0.5 * sum[b] M[a,b] * U[b,d]\n"

let work ?(expr = matmul_expr) ?(procs = 4) ?mem_gb ?mflops ?(fusion = `All)
    ?(topology = `Uniform) ?nodes () =
  {
    Proto.expr;
    procs;
    mem_gb;
    mflops;
    latency_us = None;
    bandwidth_mbs = None;
    fusion;
    topology;
    nodes;
    intra_latency_us = None;
    intra_bandwidth_mbs = None;
  }

let default_cfg ?(workers = 1) ?(queue_capacity = 8) ?(debug_ops = false)
    ?degrade ?default_deadline_ms () =
  Server.default_config ~workers ~queue_capacity ~cache_capacity:16
    ?default_deadline_ms ?degrade ~debug_ops ()

let with_server cfg f =
  let server = Server.create cfg in
  Fun.protect
    ~finally:(fun () ->
      Server.drain server;
      Server.close server)
    (fun () -> f server)

let get_str name json =
  match Json.member name json with
  | Some (Json.Str s) -> s
  | _ -> Alcotest.failf "missing string field %S in %s" name (Json.to_string json)

let get_num name json =
  match Json.member name json with
  | Some (Json.Num f) -> f
  | _ ->
    Alcotest.failf "missing number field %S in %s" name (Json.to_string json)

let get_bool name json =
  match Json.member name json with
  | Some (Json.Bool b) -> b
  | _ -> Alcotest.failf "missing bool field %S in %s" name (Json.to_string json)

let status json = get_str "status" json

let error_kind json =
  match Json.member "error" json with
  | Some err -> get_str "kind" err
  | None -> Alcotest.failf "no error object in %s" (Json.to_string json)

let call server line = Json.parse_exn (Server.call_line server line)

let contains s sub =
  let n = String.length sub in
  let rec go i =
    i + n <= String.length s && (String.sub s i n = sub || go (i + 1))
  in
  go 0

let req fields = Json.to_string (Json.Obj fields)

let optimize_req ?deadline_ms ?(procs = 4) ?(id = 1.0) ?(op = "optimize")
    expr =
  req
    ([ ("id", Json.Num id); ("op", Json.Str op);
       ("expr", Json.Str expr); ("procs", Json.Num (float_of_int procs)) ]
    @ match deadline_ms with
      | None -> []
      | Some ms -> [ ("deadline_ms", Json.Num ms) ])

(* ---------------- JSON codec ---------------- *)

let test_json_roundtrip () =
  let samples =
    [
      {|null|}; {|true|}; {|[1,2.5,-3]|}; {|"a\"b\\c\nd"|};
      {|{"x":[{"y":null}],"z":"w"}|}; {|{}|}; {|[]|}; {|1e300|};
    ]
  in
  List.iter
    (fun s ->
      let v = Json.parse_exn s in
      let v' = Json.parse_exn (Json.to_string v) in
      if v <> v' then Alcotest.failf "roundtrip changed %s" s)
    samples;
  (* escapes survive a print/parse cycle *)
  let v = Json.Str "line\nbreak \"quoted\" \\ tab\t\x01" in
  Alcotest.(check bool) "string roundtrip" true
    (Json.parse_exn (Json.to_string v) = v)

let test_json_rejects_garbage () =
  let numbers = [ "+1"; ".5"; "1."; "01"; "-"; "1e"; "--1" ] in
  List.iter
    (fun s ->
      match Json.parse s with
      | Ok _ -> Alcotest.failf "accepted %S" s
      | Error _ -> ())
    ([ ""; "{"; "[1,"; "nul"; "{\"a\"}"; "1 2"; "\"unterminated" ]
    @ numbers
    @ List.map (Printf.sprintf "[%s]") numbers);
  (* The grammar's own edge forms still parse. *)
  List.iter
    (fun (s, f) ->
      match Json.parse s with
      | Ok (Json.Num g) when Float.equal f g -> ()
      | _ -> Alcotest.failf "%S does not parse to %g" s f)
    [
      ("0", 0.); ("-0", -0.); ("0.5", 0.5); ("1E+2", 100.);
      ("-1.25e-3", -0.00125); ("10", 10.);
    ];
  (* Off-grammar numbers in a request answer a typed parse_error. *)
  with_server (default_cfg ()) (fun server ->
      List.iter
        (fun n ->
          let r = call server (Printf.sprintf {|{"id":%s,"op":"health"}|} n) in
          Alcotest.(check string) (n ^ ": kind") "parse_error" (error_kind r))
        numbers)

(* Nesting is refused one level past [Json.max_depth], with a typed
   error naming the limit; arrays and objects count alike. *)
let test_json_depth_limit () =
  let nest depth ~open_ ~close ~leaf =
    String.concat "" (List.init depth (fun _ -> open_))
    ^ leaf
    ^ String.concat "" (List.init depth (fun _ -> close))
  in
  let limit = Json.max_depth in
  List.iter
    (fun (kind, open_, close) ->
      let at = nest limit ~open_ ~close ~leaf:"1" in
      let deeper = nest (limit + 1) ~open_ ~close ~leaf:"1" in
      (match Json.parse at with
      | Ok _ -> ()
      | Error msg -> Alcotest.failf "%s at the limit refused: %s" kind msg);
      match Json.parse deeper with
      | Ok _ -> Alcotest.failf "%s one level past the limit accepted" kind
      | Error msg ->
        if not (contains msg (string_of_int limit)) then
          Alcotest.failf "%s: error does not name the limit: %s" kind msg)
    [ ("arrays", "[", "]"); ("objects", "{\"k\":", "}") ]

(* A line a million arrays deep is refused at the limit, so it answers
   a typed parse_error at once instead of stalling the reader. *)
let test_json_deep_line_answers_parse_error () =
  with_server (default_cfg ()) (fun server ->
      let r = call server (String.make 1_000_000 '[') in
      Alcotest.(check string) "status" "error" (status r);
      Alcotest.(check string) "kind" "parse_error" (error_kind r);
      let msg =
        match Json.member "error" r with
        | Some err -> get_str "message" err
        | None -> ""
      in
      if not (contains msg (string_of_int Json.max_depth)) then
        Alcotest.failf "message does not name the limit: %s" msg)

(* Reference escaper, one byte at a time. The printer copies runs of
   plain bytes whole and must match it byte for byte. *)
let reference_escape s =
  let b = Buffer.create (String.length s + 2) in
  Buffer.add_char b '"';
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string b "\\\""
      | '\\' -> Buffer.add_string b "\\\\"
      | '\n' -> Buffer.add_string b "\\n"
      | '\r' -> Buffer.add_string b "\\r"
      | '\t' -> Buffer.add_string b "\\t"
      | c when Char.code c < 0x20 ->
        Buffer.add_string b (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char b c)
    s;
  Buffer.add_char b '"';
  Buffer.contents b

(* Seeded strings over all 256 byte values, built from pieces weighted
   toward quotes, backslashes, control bytes and long plain runs. *)
let test_escape_matches_reference () =
  let rng = Prng.create ~seed:20261018 in
  let byte bound = Char.chr (Prng.int rng ~bound) in
  let piece b =
    match Prng.int rng ~bound:5 with
    | 0 ->
      (* a plain run: no byte that needs escaping *)
      for _ = 1 to Prng.int rng ~bound:300 do
        let c = Char.chr (0x20 + Prng.int rng ~bound:224) in
        Buffer.add_char b (if c = '"' || c = '\\' then 'x' else c)
      done
    | 1 -> Buffer.add_char b (Prng.pick rng [ '"'; '\\' ])
    | 2 -> Buffer.add_char b (byte 0x20)
    | _ -> Buffer.add_char b (byte 256)
  in
  let strings =
    ""
    :: String.init 256 Char.chr
    :: List.init 3000 (fun _ ->
           let b = Buffer.create 256 in
           for _ = 1 to Prng.int rng ~bound:16 do
             piece b
           done;
           Buffer.contents b)
  in
  List.iteri
    (fun k s ->
      let got = Json.to_string (Json.Str s) in
      let want = reference_escape s in
      if got <> want then
        Alcotest.failf "string %d %S: printed %S, reference %S" k s got want)
    strings

(* ---------------- cache keys (satellite: no collisions) ---------------- *)

let key w =
  match Server.cache_key_of_work w with
  | Ok k -> k
  | Error msg -> Alcotest.failf "cache_key_of_work: %s" msg

let test_cache_key_separation () =
  let base = key (work ()) in
  Alcotest.(check string) "deterministic" base (key (work ()));
  let distinct =
    [
      ("procs", key (work ~procs:16 ()));
      ("mem limit", key (work ~mem_gb:0.001 ()));
      ("flop rate", key (work ~mflops:100.0 ()));
      ("fusion mode", key (work ~fusion:`None ()));
      ("extents", key (work ~expr:"extents a=32, b=16, c=16\nC[a,c] = sum[b] A[a,b] * B[b,c]\n" ()));
    ]
  in
  List.iter
    (fun (what, k) ->
      if k = base then Alcotest.failf "%s does not separate cache keys" what)
    distinct

let test_cache_key_alpha_renaming () =
  (* Intermediate names are erased: T/S and U/R chains share a key... *)
  Alcotest.(check string) "alpha-renamed chains collide"
    (key (work ~expr:(chain_expr ~t:"T" ~s:"S") ()))
    (key (work ~expr:(chain_expr ~t:"U" ~s:"R") ()));
  (* ...but leaf names are semantic and do separate. *)
  let renamed_leaf =
    "extents a=16, b=16, c=16\nC[a,c] = sum[b] X[a,b] * B[b,c]\n"
  in
  if key (work ()) = key (work ~expr:renamed_leaf ()) then
    Alcotest.fail "leaf rename should change the key"

(* Golden keys: the exact strings the daemon files uniform plans under.
   A refactor of the key builder must reproduce them byte for byte, or
   every warm cache entry written before it would be orphaned. The
   machine and characterization parts are shared by all three keys. *)
let golden_machine =
  "machine:itanium-cluster-2003;flop=615000000;ppn=2;mem=4000000000;\
   step=0:0.062,245760:0.081250000000000003,491520:0.10038999999999999,\
   3932160:0.34999999999999998,7864320:0.61250000000000004,\
   29491200:2.2688000000000001,55296000:3.4649999999999999,\
   58982400:4.4625000000000004,117964800:8.8499999999999996,"

let golden_axis =
  "1024:0.12528333333333333,2048:0.12656666666666666,\
   4096:0.12913333333333332,8192:0.13426666666666667,\
   16384:0.14453333333333335,30720:0.16250000000000001,32768:0.165052,\
   61440:0.20077999999999999,65536:0.20553447619047618,\
   131072:0.28160609523809521,262144:0.43374933333333332,\
   491520:0.69999999999999996,524288:0.73499999999999999,\
   983040:1.2250000000000001,1048576:1.3053054545454545,\
   2097152:2.5901927272727274,3686400:4.5376000000000003,\
   4194304:4.9143080634920633,6912000:6.9299999999999997,\
   7372800:8.9250000000000007,8388608:10.134,14745600:17.699999999999999,\
   16777216:20.117999999999999,"

let golden_tail =
  String.concat "|"
    [
      "side=2";
      golden_machine;
      "rcost:side=2;a1=" ^ golden_axis ^ ";a2=" ^ golden_axis;
      "mem=default";
      "redist=2";
      "adf=false";
    ]

let golden_sum_expr =
  "extents a=8, b=8, c=8, d=8\n\
   M[a,b] = sum[c] P[a,c] * Q[c,b]\n\
   E[a,d] = sum[b] M[a,b] * R[b,d] + 0.5 * sum[b] M[a,b] * U[b,d]\n"

let test_cache_key_golden () =
  let matmul_fp = "C[a,c,]{b,}(LA[a,b,])(LB[b,c,])|a=16,b=16,c=16" in
  Alcotest.(check string) "uniform tree"
    ("v1|all|" ^ matmul_fp ^ "|" ^ golden_tail)
    (key (work ()));
  Alcotest.(check string) "fusion none tree"
    ("v1|none|" ^ matmul_fp ^ "|" ^ golden_tail)
    (key (work ~fusion:`None ()));
  Alcotest.(check string) "uniform sum"
    ("v1|all|sum|a,d,\
      |0x1p+0*CE__t1[a,d,]{b,}(CM[a,b,]{c,}(LP[a,c,])(LQ[c,b,]))(LR[b,d,])\
      |0x1p-1*CE__t2[a,d,]{b,}(CM[a,b,]{c,}(LP[a,c,])(LQ[c,b,]))(LU[b,d,])\
      |a=8,b=8,c=8,d=8|" ^ golden_tail)
    (key (work ~expr:golden_sum_expr ()))

let test_node_topology_cache_key () =
  (* The uniform key is byte-identical to the pre-topology daemon: no
     topology component ever enters it. *)
  let base = key (work ()) in
  Alcotest.(check bool) "uniform key has no topology component" false
    (contains base "topo=");
  let node = key (work ~topology:`Node ()) in
  Alcotest.(check string) "node key deterministic" node
    (key (work ~topology:`Node ()));
  Alcotest.(check bool) "node key carries the topology fingerprint" true
    (contains node "topo=");
  if node = base then
    Alcotest.fail "topology \"node\" does not separate cache keys";
  if key (work ~topology:`Node ~nodes:4 ()) = key (work ~topology:`Node ~nodes:2 ())
  then Alcotest.fail "node count does not separate cache keys"

(* ---------------- LRU cache ---------------- *)

let test_cache_lru_eviction_deterministic () =
  let run () =
    let c = Plancache.create ~capacity:2 in
    Plancache.add c "A" 1;
    Plancache.add c "B" 2;
    ignore (Plancache.find c "A" : int option);
    Plancache.add c "C" 3;
    (* B was least recently used *)
    let surviving =
      List.filter_map
        (fun k -> Option.map (fun _ -> k) (Plancache.find c k))
        [ "A"; "B"; "C" ]
    in
    (surviving, (Plancache.stats c).Plancache.evictions)
  in
  let s1, e1 = run () in
  let s2, e2 = run () in
  Alcotest.(check (list string)) "survivors" [ "A"; "C" ] s1;
  Alcotest.(check (list string)) "deterministic" s1 s2;
  Alcotest.(check int) "one eviction" 1 e1;
  Alcotest.(check int) "deterministic evictions" e1 e2

let test_cache_counters () =
  let c = Plancache.create ~capacity:4 in
  Alcotest.(check (option int)) "miss" None (Plancache.find c "x");
  Plancache.add c "x" 7;
  Alcotest.(check (option int)) "hit" (Some 7) (Plancache.find c "x");
  let s = Plancache.stats c in
  Alcotest.(check int) "hits" 1 s.Plancache.hits;
  Alcotest.(check int) "misses" 1 s.Plancache.misses;
  Alcotest.(check int) "entries" 1 s.Plancache.entries

(* ---------------- serving: plans and the cache front ---------------- *)

let test_optimize_cold_then_hit () =
  with_server (default_cfg ()) (fun server ->
      let r1 = call server (optimize_req matmul_expr) in
      Alcotest.(check string) "cold ok" "ok" (status r1);
      Alcotest.(check bool) "cold" false (get_bool "cached" r1);
      Alcotest.(check bool) "exact" false (get_bool "approximate" r1);
      let r2 = call server (optimize_req matmul_expr) in
      Alcotest.(check string) "hit ok" "ok" (status r2);
      Alcotest.(check bool) "cached" true (get_bool "cached" r2);
      (* The tentpole acceptance bar: a cache hit is byte-identical to
         the fresh search. *)
      Alcotest.(check string) "byte-identical plan" (get_str "plan" r1)
        (get_str "plan" r2))

let test_cache_hit_alpha_renamed_byte_identical () =
  with_server (default_cfg ()) (fun server ->
      let r1 = call server (optimize_req (chain_expr ~t:"T" ~s:"S")) in
      Alcotest.(check bool) "cold" false (get_bool "cached" r1);
      (* Same computation under renamed intermediates: must hit, and the
         renamed plan must equal a fresh sequential search bit for bit. *)
      let r2 = call server (optimize_req (chain_expr ~t:"U" ~s:"R")) in
      Alcotest.(check string) "ok" "ok" (status r2);
      Alcotest.(check bool) "alpha hit" true (get_bool "cached" r2);
      let problem =
        Result.get_ok (Parser.parse (chain_expr ~t:"U" ~s:"R"))
      in
      let tree = Result.get_ok (Opmin.optimize_to_tree problem) in
      let grid = Grid.create_exn ~procs:4 in
      let rcost = Rcost.of_params params ~side:(Grid.side grid) in
      let cfg = Search.default_config ~grid ~params ~rcost () in
      let fresh =
        Result.get_ok (Search.optimize cfg problem.Problem.extents tree)
      in
      Alcotest.(check string) "renamed hit equals fresh search"
        (Format.asprintf "%a" Plan.pp fresh)
        (get_str "plan" r2))

(* The work memo is keyed on the whole work item. After the server has
   answered [base], each variant differing from it in one field (two for
   the machine's link parameters and for the topology's node count) is
   derived afresh: it gets the reply a fresh server gives the same line,
   cold. The last variant differs only in the sign of a zero, which
   structural equality alone takes for the same float. *)
let test_memo_keys_whole_work () =
  let base =
    [
      ("op", Json.Str "optimize"); ("expr", Json.Str matmul_expr);
      ("procs", Json.Num 4.0); ("mem_gb", Json.Num 2.0);
      ("mflops", Json.Num 500.0); ("fusion", Json.Str "all");
      ("topology", Json.Str "node"); ("nodes", Json.Num 2.0);
      ("intra_latency_us", Json.Num 0.0);
    ]
  in
  let line ~id fields = req (("id", Json.Num id) :: fields) in
  let vary changes =
    List.fold_left
      (fun fields (name, v) ->
        let rest = List.remove_assoc name fields in
        match v with None -> rest | Some v -> rest @ [ (name, v) ])
      base changes
  in
  let variants =
    [
      ( "one extent in expr",
        [
          ( "expr",
            Some
              (Json.Str
                 "extents a=24, b=16, c=16\nC[a,c] = sum[b] A[a,b] * B[b,c]\n")
          );
        ] );
      ("procs", [ ("procs", Some (Json.Num 8.0)) ]);
      ("mem_gb", [ ("mem_gb", Some (Json.Num 1.0)) ]);
      ("mflops", [ ("mflops", Some (Json.Num 1000.0)) ]);
      ( "latency_us and bandwidth_mbs",
        [
          ("latency_us", Some (Json.Num 10.0));
          ("bandwidth_mbs", Some (Json.Num 100.0));
        ] );
      ("fusion", [ ("fusion", Some (Json.Str "none")) ]);
      ( "topology and nodes",
        [ ("topology", Some (Json.Str "uniform")); ("nodes", None) ] );
      ("intra_latency_us", [ ("intra_latency_us", Some (Json.Num 5.0)) ]);
      ("sign of a zero", [ ("intra_latency_us", Some (Json.Num (-0.0))) ]);
    ]
  in
  with_server (default_cfg ()) (fun server ->
      Alcotest.(check string) "base ok" "ok"
        (status (call server (line ~id:0.0 base)));
      Alcotest.(check bool) "base repeat hits" true
        (get_bool "cached" (call server (line ~id:0.0 base)));
      List.iteri
        (fun k (what, changes) ->
          let l = line ~id:(float_of_int (k + 1)) (vary changes) in
          let fresh =
            with_server (default_cfg ()) (fun fresh -> Server.call_line fresh l)
          in
          let got = Server.call_line server l in
          Alcotest.(check string) (what ^ ": a fresh server's reply") fresh got;
          Alcotest.(check bool) (what ^ ": cold") false
            (get_bool "cached" (Json.parse_exn got)))
        variants)

let test_simulate_and_validate_views () =
  with_server (default_cfg ()) (fun server ->
      let sim =
        call server
          (req
             [
               ("id", Json.Num 1.0); ("op", Json.Str "simulate");
               ("expr", Json.Str matmul_expr); ("procs", Json.Num 4.0);
             ])
      in
      Alcotest.(check string) "simulate ok" "ok" (status sim);
      (match Json.member "simulated" sim with
      | Some (Json.Obj _) -> ()
      | _ -> Alcotest.fail "no simulated timing");
      let v =
        call server
          (req
             [
               ("id", Json.Num 2.0); ("op", Json.Str "validate");
               ("expr", Json.Str matmul_expr); ("procs", Json.Num 4.0);
             ])
      in
      Alcotest.(check string) "validate ok" "ok" (status v);
      Alcotest.(check bool) "plan valid" true (get_bool "valid" v))

let test_node_topology_requests () =
  with_server (default_cfg ()) (fun server ->
      (* procs 8 is not a perfect square: only the node-aware shape
         search can plan it. *)
      let node_req ~id ~op =
        req
          [
            ("id", Json.Num id); ("op", Json.Str op);
            ("expr", Json.Str matmul_expr); ("procs", Json.Num 8.0);
            ("topology", Json.Str "node"); ("nodes", Json.Num 4.0);
            ("intra_bandwidth_mbs", Json.Num 100000.0);
          ]
      in
      let r1 = call server (node_req ~id:1.0 ~op:"optimize") in
      Alcotest.(check string) "cold ok" "ok" (status r1);
      Alcotest.(check bool) "cold" false (get_bool "cached" r1);
      let grid = get_str "grid" r1 in
      Alcotest.(check bool) "a shape was chosen" true
        (contains grid "grid (8 procs)");
      let r2 = call server (node_req ~id:2.0 ~op:"optimize") in
      Alcotest.(check bool) "hit" true (get_bool "cached" r2);
      Alcotest.(check string) "byte-identical hit" (get_str "plan" r1)
        (get_str "plan" r2);
      let v = call server (node_req ~id:3.0 ~op:"validate") in
      Alcotest.(check string) "validate ok" "ok" (status v);
      Alcotest.(check bool) "plan valid" true (get_bool "valid" v);
      let sim = call server (node_req ~id:4.0 ~op:"simulate") in
      Alcotest.(check string) "simulate ok" "ok" (status sim);
      (match Json.member "simulated" sim with
      | Some (Json.Obj _ as simulated) ->
        (* The replay prices every shift by its axis's link class, so it
           reproduces the node-aware model, not the flat one. *)
        check_close ~ctx:"simulated comm = plan comm"
          (get_num "comm_seconds" sim)
          (get_num "comm_seconds" simulated)
      | _ -> Alcotest.fail "no simulated timing");
      (* A multi-term sum searches shapes for the whole sum. *)
      let sum_v =
        call server
          (req
             [
               ("id", Json.Num 6.0); ("op", Json.Str "validate");
               ("expr", Json.Str sum_expr); ("procs", Json.Num 8.0);
               ("topology", Json.Str "node"); ("nodes", Json.Num 4.0);
             ])
      in
      Alcotest.(check string) "sum ok" "ok" (status sum_v);
      Alcotest.(check bool) "sum flagged" true (get_bool "sum" sum_v);
      Alcotest.(check bool) "sum plan valid" true (get_bool "valid" sum_v);
      Alcotest.(check bool) "sum shape chosen" true
        (contains (get_str "grid" sum_v) "grid (8 procs)");
      (* Bad node counts are typed invalid_request rejections. *)
      let bad =
        call server
          (req
             [
               ("id", Json.Num 5.0); ("op", Json.Str "optimize");
               ("expr", Json.Str matmul_expr); ("procs", Json.Num 8.0);
               ("topology", Json.Str "node"); ("nodes", Json.Num 3.0);
             ])
      in
      Alcotest.(check string) "indivisible nodes rejected" "error"
        (status bad))

(* procs 8 on 4 nodes and procs 4 on 2 nodes both pack 2 ranks per
   node, so their topologies fingerprint alike: the key must still carry
   the processor count, or one machine size is answered from the cache
   with the other's grid. *)
let test_node_key_carries_procs () =
  if
    key (work ~topology:`Node ~procs:8 ~nodes:4 ())
    = key (work ~topology:`Node ~procs:4 ~nodes:2 ())
  then Alcotest.fail "node keys ignore the processor count";
  List.iter
    (fun (first, second) ->
      with_server (default_cfg ()) (fun server ->
          let node_req ~id procs =
            req
              [
                ("id", Json.Num id); ("op", Json.Str "optimize");
                ("expr", Json.Str matmul_expr);
                ("procs", Json.Num (float_of_int procs));
                ("topology", Json.Str "node");
                ("nodes", Json.Num (float_of_int (procs / 2)));
              ]
          in
          ignore (call server (node_req ~id:1.0 first) : Json.t);
          let r = call server (node_req ~id:2.0 second) in
          Alcotest.(check string) "ok" "ok" (status r);
          Alcotest.(check bool)
            (Printf.sprintf "procs %d after %d: cold" second first)
            false (get_bool "cached" r);
          Alcotest.(check bool)
            (Printf.sprintf "procs %d after %d: own grid size" second first)
            true
            (contains (get_str "grid" r)
               (Printf.sprintf "(%d procs)" second))))
    [ (8, 4); (4, 8) ]

(* ---------------- typed rejections ---------------- *)

let test_malformed_lines () =
  with_server (default_cfg ()) (fun server ->
      let r = call server "this is not json" in
      Alcotest.(check string) "parse status" "error" (status r);
      Alcotest.(check string) "parse kind" "parse_error" (error_kind r);
      let r = call server {|{"id":9,"op":"frobnicate"}|} in
      Alcotest.(check string) "op status" "error" (status r);
      Alcotest.(check string) "op kind" "invalid_request" (error_kind r);
      let r = call server {|{"op":"optimize"}|} in
      Alcotest.(check string) "missing expr" "invalid_request" (error_kind r);
      let r = call server (optimize_req ~procs:3 matmul_expr) in
      Alcotest.(check string) "bad grid" "invalid_request" (error_kind r);
      let r = call server {|{"id":1,"op":"debug_crash"}|} in
      Alcotest.(check string) "debug ops gated" "invalid_request"
        (error_kind r))

(* One-byte mutants of three request lines — a work request, a
   node-topology simulate with a deadline, an admin op — go through
   [Proto.parse_request]. Each must come back [Ok] or a typed [Error];
   none may raise. *)
let test_request_mutants_typed () =
  let lines =
    [
      optimize_req matmul_expr;
      req
        [
          ("id", Json.Str "s");
          ("op", Json.Str "simulate");
          ("expr", Json.Str sum_expr);
          ("procs", Json.Num 8.0);
          ("topology", Json.Str "node");
          ("nodes", Json.Num 4.0);
          ("deadline_ms", Json.Num 250.0);
        ];
      {|{"id":3,"op":"stats"}|};
    ]
  in
  check_mutants ~seed:20261017 ~count:5000 ~name:"request mutants" lines
    (fun line ->
      match Proto.parse_request line with
      | Ok _ | Error (`Parse _) | Error (`Invalid _) -> true)

(* Machine values a constructor would refuse, or plan with as nonsense,
   are typed [invalid_request]s naming the field: no worker crashes. *)
let test_bad_machine_values_typed () =
  let line fields =
    Printf.sprintf {|{"id":1,"op":"optimize","expr":%s,"procs":4,%s}|}
      (Json.to_string (Json.Str matmul_expr))
      fields
  in
  with_server (default_cfg ()) (fun server ->
      List.iter
        (fun (fields, field) ->
          let r = call server (line fields) in
          Alcotest.(check string) fields "invalid_request" (error_kind r);
          let message =
            match Json.member "error" r with
            | Some err -> get_str "message" err
            | None -> ""
          in
          if not (contains message field) then
            Alcotest.failf "%s: message %S does not name %s" fields message
              field)
        [
          ({|"bandwidth_mbs":0|}, "bandwidth_mbs");
          ({|"topology":"node","intra_latency_us":-1|}, "intra_latency_us");
          ( {|"topology":"node","intra_bandwidth_mbs":0|},
            "intra_bandwidth_mbs" );
          ({|"mflops":-5|}, "mflops");
          ({|"mem_gb":1e999|}, "mem_gb");
        ];
      let s = call server {|{"id":"s","op":"stats"}|} in
      Alcotest.(check (float 0.)) "no worker crashed" 0.
        (get_num "worker_crashes" s))

let test_infeasible_memory_is_typed () =
  with_server (default_cfg ()) (fun server ->
      let r =
        call server
          (req
             [
               ("id", Json.Num 1.0); ("op", Json.Str "optimize");
               ("expr", Json.Str matmul_expr); ("procs", Json.Num 4.0);
               ("mem_gb", Json.Num 1e-9);
             ])
      in
      Alcotest.(check string) "status" "error" (status r);
      Alcotest.(check string) "kind" "no_plan" (error_kind r))

(* ---------------- backpressure ---------------- *)

let await ?(timeout_s = 5.0) what cond =
  let t0 = Unix.gettimeofday () in
  while (not (cond ())) && Unix.gettimeofday () -. t0 < timeout_s do
    Unix.sleepf 0.005
  done;
  if not (cond ()) then Alcotest.failf "timed out waiting for %s" what

let test_overload_rejection () =
  let cfg = default_cfg ~workers:1 ~queue_capacity:1 ~debug_ops:true () in
  with_server cfg (fun server ->
      let replies = ref [] in
      let lock = Mutex.create () in
      let submit line =
        ignore
          (Server.submit_line server line ~reply:(fun s ->
               Mutex.lock lock;
               replies := s :: !replies;
               Mutex.unlock lock)
            : bool)
      in
      (* Occupy the single worker... *)
      submit {|{"id":"busy","op":"debug_sleep","ms":300}|};
      await "worker pickup" (fun () -> Server.queue_depth server = 0);
      (* ...fill the queue... *)
      submit {|{"id":"queued","op":"debug_sleep","ms":1}|};
      await "queue fill" (fun () -> Server.queue_depth server = 1);
      (* ...and the next request must be rejected with a typed hint. *)
      let r = call server (optimize_req ~id:3.0 matmul_expr) in
      Alcotest.(check string) "status" "overloaded" (status r);
      (match Json.member "retry_after_ms" r with
      | Some (Json.Num ms) when ms > 0.0 -> ()
      | _ -> Alcotest.fail "no positive retry_after_ms hint");
      let s = Server.stats server in
      Alcotest.(check bool) "rejection counted" true (s.Server.rejected >= 1))

let test_deadline_expires_in_queue () =
  let cfg = default_cfg ~workers:1 ~queue_capacity:4 ~debug_ops:true () in
  with_server cfg (fun server ->
      ignore
        (Server.submit_line server {|{"id":"busy","op":"debug_sleep","ms":300}|}
           ~reply:(fun _ -> ())
          : bool);
      await "worker pickup" (fun () -> Server.queue_depth server = 0);
      (* Queued behind a 300 ms sleep with a 5 ms budget: expired at
         dequeue, before any search starts. *)
      let r = call server (optimize_req ~deadline_ms:5.0 matmul_expr) in
      Alcotest.(check string) "status" "deadline_exceeded" (status r);
      Alcotest.(check string) "where" "queue" (get_str "where" r))

(* ---------------- deadlines and degradation ---------------- *)

let test_deadline_exceeded_in_search () =
  (* degrade=`Never: the paper-scale search against a ~1 ms budget must
     come back deadline_exceeded through the cooperative cancel token. *)
  let cfg = default_cfg ~degrade:`Never () in
  with_server cfg (fun server ->
      let r =
        call server
          (optimize_req ~procs:64 ~deadline_ms:1.0 (ccsd_text ~scale:`Paper))
      in
      Alcotest.(check string) "status" "deadline_exceeded" (status r);
      let s = Server.stats server in
      Alcotest.(check bool) "counted" true (s.Server.deadline_exceeded >= 1))

(* The deadline also bounds the replay: paper CCSD on 16,384 processors
   plans in milliseconds but replays for seconds, so a 200 ms budget
   comes back deadline_exceeded within a second of the deadline. *)
let test_deadline_exceeded_in_simulate () =
  with_server (default_cfg ()) (fun server ->
      let t0 = Unix.gettimeofday () in
      let r =
        call server
          (optimize_req ~op:"simulate" ~procs:16384 ~deadline_ms:200.0
             (ccsd_text ~scale:`Paper))
      in
      let elapsed = Unix.gettimeofday () -. t0 in
      Alcotest.(check string) "status" "deadline_exceeded" (status r);
      Alcotest.(check string) "where" "Simulate.run_plan" (get_str "where" r);
      Alcotest.(check bool) "elapsed_ms reported" true
        (get_num "elapsed_ms" r >= 0.0);
      if elapsed > 1.2 then
        Alcotest.failf "answered %.2f s after the request, deadline 0.2 s"
          elapsed)

(* Without a deadline the replay runs to the end: the reply's MD5 is
   pinned. *)
let test_simulate_without_deadline_unchanged () =
  with_server (default_cfg ()) (fun server ->
      let reply =
        Server.call_line server
          (optimize_req ~op:"simulate" ~procs:16 (ccsd_text ~scale:`Paper))
      in
      Alcotest.(check string) "reply digest" "e6b989cd4bd47bd2369f6deb498d4555"
        (Digest.to_hex (Digest.string reply)))

let test_degrade_always_is_approximate () =
  let cfg = default_cfg ~degrade:`Always () in
  with_server cfg (fun server ->
      let r = call server (optimize_req matmul_expr) in
      Alcotest.(check string) "status" "ok" (status r);
      Alcotest.(check bool) "labelled approximate" true
        (get_bool "approximate" r);
      (* Approximate plans never enter the cache: a second request is
         still served, but not from the exact-plan cache. *)
      let r2 = call server (optimize_req matmul_expr) in
      Alcotest.(check bool) "not cached" false (get_bool "cached" r2))

(* ---------------- multi-term sums (DESIGN.md §16) ---------------- *)

(* The sum's individual terms, as standalone single-term problems. *)
let sum_term_exprs =
  [
    "extents a=8, b=8, c=8, d=8\n\
     M[a,b] = sum[c] P[a,c] * Q[c,b]\n\
     E[a,d] = sum[b] M[a,b] * R[b,d]\n";
    "extents a=8, b=8, c=8, d=8\n\
     M[a,b] = sum[c] P[a,c] * Q[c,b]\n\
     E[a,d] = sum[b] M[a,b] * U[b,d]\n";
  ]

let load_sum expr =
  let problem = Result.get_ok (Parser.parse expr) in
  match Result.get_ok (Opmin.optimize_to_computation problem) with
  | Opmin.Summed se -> (problem.Problem.extents, se)
  | Opmin.Single _ -> Alcotest.fail "expected a multi-term sum"

let test_sum_cache_key_separation () =
  (* The whole-sum fingerprint keys the cache: the key is deterministic
     and disjoint from the key of every individual term served alone. *)
  let sum_key = key (work ~expr:sum_expr ()) in
  Alcotest.(check string) "deterministic" sum_key
    (key (work ~expr:sum_expr ()));
  List.iteri
    (fun i term_expr ->
      if key (work ~expr:term_expr ()) = sum_key then
        Alcotest.failf "term %d alone shares the sum's cache key" (i + 1))
    sum_term_exprs

let test_sum_cold_then_hit () =
  with_server (default_cfg ()) (fun server ->
      let r1 = call server (optimize_req sum_expr) in
      Alcotest.(check string) "cold ok" "ok" (status r1);
      Alcotest.(check bool) "sum flagged" true (get_bool "sum" r1);
      Alcotest.(check bool) "cold" false (get_bool "cached" r1);
      Alcotest.(check bool) "exact" false (get_bool "approximate" r1);
      let r2 = call server (optimize_req sum_expr) in
      Alcotest.(check string) "hit ok" "ok" (status r2);
      Alcotest.(check bool) "cached" true (get_bool "cached" r2);
      Alcotest.(check string) "byte-identical sum plan" (get_str "plan" r1)
        (get_str "plan" r2);
      (* The hit equals a fresh sum search bit for bit: sum fingerprints
         keep names, so no renaming is even involved. *)
      let ext, se = load_sum sum_expr in
      let _grid, cfg = search_config 4 in
      let fresh = get_ok ~ctx:"optimize_sum" (Search.optimize_sum cfg ext se) in
      Alcotest.(check string) "hit equals fresh sum search"
        (Format.asprintf "%a" (Plan.pp_sum ext) fresh)
        (get_str "plan" r2))

let test_sum_simulate_and_validate_views () =
  with_server (default_cfg ()) (fun server ->
      let sim =
        call server
          (req
             [
               ("id", Json.Num 1.0); ("op", Json.Str "simulate");
               ("expr", Json.Str sum_expr); ("procs", Json.Num 4.0);
             ])
      in
      Alcotest.(check string) "simulate ok" "ok" (status sim);
      (match Json.member "simulated" sim with
      | Some (Json.Obj _) -> ()
      | _ -> Alcotest.fail "no simulated timing");
      let v =
        call server
          (req
             [
               ("id", Json.Num 2.0); ("op", Json.Str "validate");
               ("expr", Json.Str sum_expr); ("procs", Json.Num 4.0);
             ])
      in
      Alcotest.(check string) "validate ok" "ok" (status v);
      Alcotest.(check bool) "sum plan certified" true (get_bool "valid" v))

let test_sum_fusion_modes_gated () =
  (* The sum optimizer always plans terms over the full fusion space;
     restricted modes on a multi-term problem are a typed rejection. *)
  with_server (default_cfg ()) (fun server ->
      List.iter
        (fun mode ->
          let r =
            call server
              (req
                 [
                   ("id", Json.Num 1.0); ("op", Json.Str "optimize");
                   ("expr", Json.Str sum_expr); ("procs", Json.Num 4.0);
                   ("fusion", Json.Str mode);
                 ])
          in
          Alcotest.(check string) (mode ^ " status") "error" (status r);
          Alcotest.(check string) (mode ^ " kind") "invalid_request"
            (error_kind r))
        [ "none"; "memmin" ])

let test_sum_degrade_always_is_approximate () =
  let cfg = default_cfg ~degrade:`Always () in
  with_server cfg (fun server ->
      let r = call server (optimize_req sum_expr) in
      Alcotest.(check string) "status" "ok" (status r);
      Alcotest.(check bool) "sum flagged" true (get_bool "sum" r);
      Alcotest.(check bool) "labelled approximate" true
        (get_bool "approximate" r);
      (* Approximate sum plans never enter the cache. *)
      let r2 = call server (optimize_req sum_expr) in
      Alcotest.(check bool) "not cached" false (get_bool "cached" r2))

let test_sum_greedy_rung_plan_certified () =
  (* The ladder's last rung plans the sum with the Greedy strategy (the
     labelling as approximate is covered by
     test_sum_degrade_always_is_approximate): the greedy no-sharing plan
     must be validator-certified and an upper bound on the exact
     optimum. *)
  let ext, se = load_sum sum_expr in
  let _grid, cfg = search_config 4 in
  let greedy =
    Search.sum_plan
      (get_ok ~ctx:"greedy sum"
         (Search.plan ext
            (Search.request ~strategy:Search.Greedy (Search.Grid cfg)
               (Search.Sum se))))
  in
  Alcotest.(check int) "greedy shares nothing" 0
    (List.length greedy.Plan.shared);
  (match
     Plan.validate_sum ?mem_limit_bytes:cfg.Search.mem_limit_bytes ~ext greedy
   with
  | Ok () -> ()
  | Error msg -> Alcotest.failf "greedy sum plan rejected: %s" msg);
  let exact = get_ok ~ctx:"optimize_sum" (Search.optimize_sum cfg ext se) in
  Alcotest.(check bool) "greedy upper-bounds the optimum" true
    (exact.Plan.sum_comm_cost <= greedy.Plan.sum_comm_cost +. 1e-9)

(* ---------------- crash isolation ---------------- *)

let test_worker_crash_isolation () =
  let cfg = default_cfg ~workers:1 ~debug_ops:true () in
  with_server cfg (fun server ->
      let r = call server {|{"id":"boom","op":"debug_crash"}|} in
      Alcotest.(check string) "status" "error" (status r);
      Alcotest.(check string) "kind" "worker_crashed" (error_kind r);
      (* The daemon survives: health answers and a real request works. *)
      let h = call server {|{"id":"h","op":"health"}|} in
      Alcotest.(check string) "health ok" "ok" (status h);
      Alcotest.(check bool) "healthy" true (get_bool "healthy" h);
      let r2 = call server (optimize_req matmul_expr) in
      Alcotest.(check string) "still serving" "ok" (status r2);
      let s = Server.stats server in
      Alcotest.(check bool) "crash counted" true (s.Server.worker_crashes >= 1))

(* ---------------- drain ---------------- *)

let test_drain_rejects_new_work () =
  let server = Server.create (default_cfg ()) in
  Fun.protect
    ~finally:(fun () -> Server.close server)
    (fun () ->
      let r1 = call server (optimize_req matmul_expr) in
      Alcotest.(check string) "pre-drain ok" "ok" (status r1);
      let d = call server {|{"id":"d","op":"drain"}|} in
      Alcotest.(check string) "drain ok" "ok" (status d);
      Alcotest.(check bool) "drained" true (get_bool "drained" d);
      let r2 = call server (optimize_req matmul_expr) in
      Alcotest.(check string) "post-drain status" "error" (status r2);
      Alcotest.(check string) "post-drain kind" "draining" (error_kind r2))

(* [submit_line] reports an admitted drain, and only that: a drain line
   rejected at parse (a string deadline) returns [false], so a stdio
   front end keeps reading and answers the next line. *)
let test_submit_line_reports_drain () =
  let server = Server.create (default_cfg ()) in
  Fun.protect
    ~finally:(fun () -> Server.close server)
    (fun () ->
      (* Admin ops and malformed lines are answered on the calling
         thread, so the reply is in by the time [submit_line] returns. *)
      let submit line =
        let got = ref None in
        let drained =
          Server.submit_line server line ~reply:(fun s -> got := Some s)
        in
        match !got with
        | Some s -> (drained, Json.parse_exn s)
        | None -> Alcotest.failf "no synchronous reply to %s" line
      in
      let drained, r = submit {|{"id":1,"op":"drain","deadline_ms":"x"}|} in
      Alcotest.(check bool) "rejected drain" false drained;
      Alcotest.(check string) "rejected drain kind" "invalid_request"
        (error_kind r);
      let drained, r = submit {|{"id":2,"op":"health"}|} in
      Alcotest.(check bool) "health" false drained;
      Alcotest.(check string) "health answered" "ok" (status r);
      let drained, _ = submit "not json" in
      Alcotest.(check bool) "parse error" false drained;
      let drained, r = submit {|{"id":3,"op":"drain"}|} in
      Alcotest.(check bool) "admitted drain" true drained;
      Alcotest.(check bool) "drain answered" true (get_bool "drained" r))

(* The daemon's only search concurrency is its worker domains: with two
   workers, four distinct requests (a matmul, a chain, a sum, the CCSD
   term) submitted at once are served side by side, and each plan
   equals the one a single worker serves for that request. *)
let test_two_workers_match_one () =
  let lines =
    List.mapi
      (fun k expr -> optimize_req ~id:(float_of_int k) expr)
      [
        matmul_expr; chain_expr ~t:"T" ~s:"S"; sum_expr; ccsd_text ~scale:`Tiny;
      ]
  in
  let alone =
    with_server (default_cfg ()) (fun server ->
        List.map (fun line -> get_str "plan" (call server line)) lines)
  in
  let replies = Array.make (List.length lines) None in
  with_server (default_cfg ~workers:2 ()) (fun server ->
      List.iteri
        (fun k line ->
          ignore
            (Server.submit_line server line ~reply:(fun s ->
                 replies.(k) <- Some (Json.parse_exn s))
              : bool))
        lines;
      (* Drain waits for every in-flight reply. *)
      Server.drain server);
  List.iteri
    (fun k plan ->
      match replies.(k) with
      | None -> Alcotest.failf "request %d: no reply" k
      | Some r ->
        Alcotest.(check string) (Printf.sprintf "request %d status" k) "ok"
          (status r);
        Alcotest.(check string)
          (Printf.sprintf "request %d: plan equals one worker's" k)
          plan (get_str "plan" r))
    alone

(* [?search_jobs] survives only for source compatibility: 1 is accepted
   and stored nowhere, any other value is refused. *)
let test_search_jobs_shim () =
  Alcotest.(check bool) "search_jobs 1 changes nothing" true
    (Server.default_config ~search_jobs:1 () = Server.default_config ());
  List.iter
    (fun jobs ->
      match Server.default_config ~search_jobs:jobs () with
      | exception Invalid_argument _ -> ()
      | _ -> Alcotest.failf "search_jobs %d accepted" jobs)
    [ 0; 2; 4 ]

(* ---------------- search cancellation (core hook) ---------------- *)

let test_search_cancel_raises_then_solves_fresh () =
  let problem, _, tree = ccsd ~scale:`Small in
  let _grid, cfg = search_config 16 in
  let ext = problem.Problem.extents in
  let solve () =
    Format.asprintf "%a" Plan.pp (Result.get_ok (Search.optimize cfg ext tree))
  in
  let fresh = solve () in
  (match Search.optimize ~cancel:(fun () -> true) cfg ext tree with
  | exception Tce_error.Error (Tce_error.Deadline_exceeded _) -> ()
  | exception e -> Alcotest.failf "wrong exception: %s" (Printexc.to_string e)
  | Ok _ -> Alcotest.fail "cancelled search returned a plan"
  | Error msg -> Alcotest.failf "cancelled search errored: %s" msg);
  (* The cancelled solve leaves nothing behind: the next one is the
     fresh one. *)
  Alcotest.(check string) "next solve equals a fresh one" fresh (solve ())

(* A node can price a million candidates (here T2 of the seconds-scale
   einsum prices 1,062,036), so the token is polled in proportion to the
   work, not only per node and variant: at least once per 4,096
   candidates generated over the solve. *)
let test_cancel_polled_per_candidates () =
  let ext, tree =
    Gencorpus.random_einsum ~seed:13 ~tensors:10 ~rank:7 ~lo:6 ~hi:16
  in
  let _grid, cfg = search_config 16 in
  let polls = ref 0 in
  let sink = Obs.create () in
  ignore
    (Obs.with_sink sink (fun () ->
         Result.get_ok
           (Search.optimize
              ~cancel:(fun () ->
                incr polls;
                false)
              cfg ext tree))
      : Plan.t);
  let generated =
    Option.value ~default:0
      (List.assoc_opt "search.solutions_generated" (Obs.counters sink))
  in
  if generated < 1_000_000 then
    Alcotest.failf "instance too small: %d candidates" generated;
  if !polls < generated / 4096 then
    Alcotest.failf "%d polls for %d candidates (want >= %d)" !polls generated
      (generated / 4096)

(* A deadline cancels one worker's search while another worker searches
   on. Solve after solve whose token fires halfway (after half the polls
   a full solve makes) raises typed on one domain for as long as a solve
   runs alongside on another; that solve still equals a fresh one, and
   so does the cancelling domain's next solve. *)
let test_cancel_leaves_concurrent_solve_intact () =
  let problem, _, tree = ccsd ~scale:`Small in
  let _grid, cfg = search_config 16 in
  let ext = problem.Problem.extents in
  let solve ?cancel () =
    Format.asprintf "%a" Plan.pp
      (Result.get_ok (Search.optimize ?cancel cfg ext tree))
  in
  let polls = ref 0 in
  let fresh = solve ~cancel:(fun () -> incr polls; false) () in
  let halfway = !polls / 2 in
  let cancelled_halfway () =
    let polls = ref 0 in
    match solve ~cancel:(fun () -> incr polls; !polls > halfway) () with
    | exception Tce_error.Error (Tce_error.Deadline_exceeded _) ->
      "deadline exceeded"
    | exception e -> Printexc.to_string e
    | _ -> "returned a plan"
  in
  let finished = Atomic.make false in
  let alongside =
    Domain.spawn (fun () ->
        Fun.protect
          ~finally:(fun () -> Atomic.set finished true)
          (fun () -> solve ()))
  in
  let rec cancel_until_finished outcomes =
    let outcomes = cancelled_halfway () :: outcomes in
    if Atomic.get finished then outcomes else cancel_until_finished outcomes
  in
  let outcomes = cancel_until_finished [] in
  let alongside = Domain.join alongside in
  List.iteri
    (fun k outcome ->
      Alcotest.(check string)
        (Printf.sprintf "halfway cancel %d raises typed" k)
        "deadline exceeded" outcome)
    outcomes;
  Alcotest.(check string) "concurrent solve equals a fresh one" fresh alongside;
  Alcotest.(check string) "cancelling domain's next solve equals a fresh one"
    fresh (solve ())

let suite =
  [
    ( "serve.json",
      [
        case "print/parse roundtrip" test_json_roundtrip;
        case "malformed input rejected" test_json_rejects_garbage;
        case "nesting refused one level past the limit" test_json_depth_limit;
        case "a million-deep line answers parse_error"
          test_json_deep_line_answers_parse_error;
        case "escape matches the per-byte reference"
          test_escape_matches_reference;
      ] );
    ( "serve.cache",
      [
        case "keys separate machines and limits" test_cache_key_separation;
        case "keys erase intermediate names" test_cache_key_alpha_renaming;
        case "uniform keys match the golden strings" test_cache_key_golden;
        case "node topology keyed separately" test_node_topology_cache_key;
        case "LRU eviction deterministic" test_cache_lru_eviction_deterministic;
        case "hit/miss counters" test_cache_counters;
      ] );
    ( "serve.server",
      [
        case "cold then byte-identical hit" test_optimize_cold_then_hit;
        case "alpha-renamed hit equals fresh search"
          test_cache_hit_alpha_renamed_byte_identical;
        case "memo answers only the work item it derived"
          test_memo_keys_whole_work;
        case "simulate and validate views" test_simulate_and_validate_views;
        case "node topology end to end" test_node_topology_requests;
        case "node keys carry the processor count" test_node_key_carries_procs;
        case "malformed requests typed" test_malformed_lines;
        case "one-byte request mutants parse or fail typed"
          test_request_mutants_typed;
        case "bad machine values typed" test_bad_machine_values_typed;
        case "infeasible memory typed" test_infeasible_memory_is_typed;
        case "overload rejected with hint" test_overload_rejection;
        case "deadline expires in queue" test_deadline_expires_in_queue;
        case "deadline exceeded in search" test_deadline_exceeded_in_search;
        case "deadline exceeded in simulate" test_deadline_exceeded_in_simulate;
        case "simulate without deadline unchanged"
          test_simulate_without_deadline_unchanged;
        case "degrade always labels approximate"
          test_degrade_always_is_approximate;
        case "worker crash isolated" test_worker_crash_isolation;
        case "drain rejects new work" test_drain_rejects_new_work;
        case "submit_line reports an admitted drain"
          test_submit_line_reports_drain;
        case "two workers serve side by side as one does"
          test_two_workers_match_one;
        case "search_jobs accepted only as 1" test_search_jobs_shim;
      ] );
    ( "serve.sum",
      [
        case "sum key disjoint from its terms" test_sum_cache_key_separation;
        case "sum cold then byte-identical hit" test_sum_cold_then_hit;
        case "sum simulate and validate views"
          test_sum_simulate_and_validate_views;
        case "sum restricted fusion rejected" test_sum_fusion_modes_gated;
        case "sum degrade always labels approximate"
          test_sum_degrade_always_is_approximate;
        case "greedy sum rung certified" test_sum_greedy_rung_plan_certified;
      ] );
    ( "serve.cancel",
      [
        case "cancel raises typed, next solve equals a fresh one"
          test_search_cancel_raises_then_solves_fresh;
        case "halfway cancel leaves a concurrent solve intact"
          test_cancel_leaves_concurrent_solve_intact;
        case "token polled every 4,096 candidates"
          test_cancel_polled_per_candidates;
      ] );
  ]
