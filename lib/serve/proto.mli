(** Wire protocol of the planning daemon (JSON lines, one object per
    line each way). The full schema is documented in DESIGN.md §13.

    Every response carries the request's [id] verbatim and a [status] of
    ["ok"], ["overloaded"], ["deadline_exceeded"] or ["error"]; errors
    additionally carry a typed [error.kind] (the {!Tce_error.kind}
    strings plus ["parse_error"], ["invalid_request"], ["draining"] and
    ["worker_crashed"]). *)

open! Import

type fusion = [ `All | `None | `Memmin ]

type topology = [ `Uniform | `Node ]
(** [`Uniform]: the paper's flat α–β machine on the square grid —
    byte-identical to the pre-topology daemon. [`Node]: node-aware
    shape search over every R × C factorization of [procs]
    (a {!Tce_core.Search.Shapes} request). *)

type work = {
  expr : string;  (** problem text, {!Tce_expr.Parser.parse} syntax *)
  procs : int;
      (** processor count (a perfect square under [`Uniform]; any
          positive count under [`Node]) *)
  mem_gb : float option;  (** per-node memory limit override *)
  mflops : float option;
  latency_us : float option;
      (** with [bandwidth_mbs]: use a uniform α–β machine *)
  bandwidth_mbs : float option;
  fusion : fusion;
  topology : topology;  (** default [`Uniform] *)
  nodes : int option;
      (** with [`Node]: node count (must divide [procs]); default the
          machine's procs-per-node *)
  intra_latency_us : float option;  (** with [`Node]: default 1 µs *)
  intra_bandwidth_mbs : float option;
      (** with [`Node]: default 1000 MB/s *)
}

type op =
  | Optimize of work
  | Simulate of work  (** optimize, then replay on the simulated cluster *)
  | Validate of work  (** optimize, then structurally validate the plan *)
  | Health
  | Stats
  | Drain  (** stop admitting, finish the queue, then shut down *)
  | Debug_sleep of float
      (** hold a worker for the given milliseconds; only honoured when
          the server was created with [debug_ops] (tests and the load
          generator use it to force overload deterministically) *)
  | Debug_crash
      (** raise inside the worker; [debug_ops] only — exercises crash
          isolation *)

type request = {
  id : Json.t;  (** echoed verbatim; [Json.Null] when absent *)
  op : op;
  deadline_ms : float option;
}

val fusion_of_string : string -> (fusion, string) result
val fusion_to_string : fusion -> string
val topology_of_string : string -> (topology, string) result

val parse_request :
  string ->
  (request, [ `Parse of string | `Invalid of Json.t * string ]) result
(** [`Parse]: the line is not JSON (no [id] recoverable). [`Invalid]:
    valid JSON but not a well-formed request; carries the [id] if one
    was present so the error response can still echo it. *)

val ok : id:Json.t -> (string * Json.t) list -> Json.t

val error :
  id:Json.t -> kind:string -> message:string -> (string * Json.t) list
  -> Json.t

val overloaded :
  id:Json.t -> queue_depth:int -> retry_after_ms:float -> Json.t

val deadline_exceeded :
  id:Json.t -> where:string -> elapsed_ms:float -> Json.t

val to_line : Json.t -> string
(** Single-line rendering, safe to write as one JSON-lines record. *)
