(* Wire protocol of the planning daemon: one JSON object per line in,
   one per line out. See DESIGN.md §13 for the schema. *)

open! Import

type fusion = [ `All | `None | `Memmin ]
type topology = [ `Uniform | `Node ]

type work = {
  expr : string;
  procs : int;
  mem_gb : float option;
  mflops : float option;
  latency_us : float option;
  bandwidth_mbs : float option;
  fusion : fusion;
  topology : topology;
  nodes : int option;  (** with [`Node]: node count; must divide [procs] *)
  intra_latency_us : float option;
  intra_bandwidth_mbs : float option;
}

type op =
  | Optimize of work
  | Simulate of work
  | Validate of work
  | Health
  | Stats
  | Drain
  | Debug_sleep of float  (** milliseconds; test/bench only *)
  | Debug_crash  (** raises inside the worker; test/bench only *)

type request = {
  id : Json.t;  (** echoed verbatim in the response; [Null] if absent *)
  op : op;
  deadline_ms : float option;
}

let fusion_of_string = function
  | "all" -> Ok `All
  | "none" -> Ok `None
  | "memmin" -> Ok `Memmin
  | s -> Error (Printf.sprintf "unknown fusion mode %S" s)

let fusion_to_string = function
  | `All -> "all"
  | `None -> "none"
  | `Memmin -> "memmin"

let topology_of_string = function
  | "uniform" -> Ok `Uniform
  | "node" -> Ok `Node
  | s -> Error (Printf.sprintf "unknown topology %S" s)

(* ---- request parsing ------------------------------------------------- *)

let opt_field json name conv kind =
  match Json.member name json with
  | None | Some Json.Null -> Ok None
  | Some v -> (
    match conv v with
    | Some x -> Ok (Some x)
    | None -> Error (Printf.sprintf "field %S must be %s" name kind))

let ( let* ) = Result.bind

let work_of_json json =
  let* expr =
    match Json.member "expr" json with
    | Some (Json.Str s) -> Ok s
    | Some _ -> Error "field \"expr\" must be a string"
    | None -> Error "missing field \"expr\""
  in
  let* procs = opt_field json "procs" Json.to_int "an integer" in
  let* mem_gb = opt_field json "mem_gb" Json.to_float "a number" in
  let* mflops = opt_field json "mflops" Json.to_float "a number" in
  let* latency_us = opt_field json "latency_us" Json.to_float "a number" in
  let* bandwidth_mbs =
    opt_field json "bandwidth_mbs" Json.to_float "a number"
  in
  let* fusion =
    match Json.member "fusion" json with
    | None | Some Json.Null -> Ok `All
    | Some (Json.Str s) -> fusion_of_string s
    | Some _ -> Error "field \"fusion\" must be a string"
  in
  let* topology =
    match Json.member "topology" json with
    | None | Some Json.Null -> Ok `Uniform
    | Some (Json.Str s) -> topology_of_string s
    | Some _ -> Error "field \"topology\" must be a string"
  in
  let* nodes = opt_field json "nodes" Json.to_int "an integer" in
  let* intra_latency_us =
    opt_field json "intra_latency_us" Json.to_float "a number"
  in
  let* intra_bandwidth_mbs =
    opt_field json "intra_bandwidth_mbs" Json.to_float "a number"
  in
  let procs = Option.value ~default:16 procs in
  if procs <= 0 then Error "field \"procs\" must be positive"
  else if (match nodes with Some n -> n <= 0 | None -> false) then
    Error "field \"nodes\" must be positive"
  else
    Ok
      {
        expr;
        procs;
        mem_gb;
        mflops;
        latency_us;
        bandwidth_mbs;
        fusion;
        topology;
        nodes;
        intra_latency_us;
        intra_bandwidth_mbs;
      }

let request_of_json json =
  match json with
  | Json.Obj _ ->
    let id = Option.value ~default:Json.Null (Json.member "id" json) in
    let* deadline_ms =
      opt_field json "deadline_ms" Json.to_float "a number"
    in
    let* op =
      match Json.member "op" json with
      | Some (Json.Str "optimize") ->
        Result.map (fun w -> Optimize w) (work_of_json json)
      | Some (Json.Str "simulate") ->
        Result.map (fun w -> Simulate w) (work_of_json json)
      | Some (Json.Str "validate") ->
        Result.map (fun w -> Validate w) (work_of_json json)
      | Some (Json.Str "health") -> Ok Health
      | Some (Json.Str "stats") -> Ok Stats
      | Some (Json.Str "drain") -> Ok Drain
      | Some (Json.Str "debug_sleep") ->
        let* ms = opt_field json "ms" Json.to_float "a number" in
        Ok (Debug_sleep (Option.value ~default:50.0 ms))
      | Some (Json.Str "debug_crash") -> Ok Debug_crash
      | Some (Json.Str s) -> Error (Printf.sprintf "unknown op %S" s)
      | Some _ -> Error "field \"op\" must be a string"
      | None -> Error "missing field \"op\""
    in
    Ok { id; op; deadline_ms }
  | _ -> Error "request must be a JSON object"

let parse_request line =
  match Json.parse line with
  | Error msg -> Error (`Parse msg)
  | Ok json -> (
    match request_of_json json with
    | Ok r -> Ok r
    | Error msg ->
      let id = Option.value ~default:Json.Null (Json.member "id" json) in
      Error (`Invalid (id, msg)))

(* ---- response building ----------------------------------------------- *)

let response ~id ~status fields =
  Json.Obj (("id", id) :: ("status", Json.Str status) :: fields)

let ok ~id fields = response ~id ~status:"ok" fields

let error ~id ~kind ~message extra =
  response ~id ~status:"error"
    ((("error", Json.Obj [ ("kind", Json.Str kind); ("message", Json.Str message) ]))
    :: extra)

let overloaded ~id ~queue_depth ~retry_after_ms =
  response ~id ~status:"overloaded"
    [
      ("queue_depth", Json.Num (float_of_int queue_depth));
      ("retry_after_ms", Json.Num retry_after_ms);
    ]

let deadline_exceeded ~id ~where ~elapsed_ms =
  response ~id ~status:"deadline_exceeded"
    [ ("where", Json.Str where); ("elapsed_ms", Json.Num elapsed_ms) ]

let to_line json = Json.to_string json
