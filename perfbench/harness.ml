(* What a workload gives the main loop, and what a traced phase gives back. *)

open Tce

(* One operation: its timed part and whether its output checked out. *)
type op = { seconds : float; ok : bool; kind : string }

type traced = {
  ops : int;  (** operations run while the sink was installed *)
  self_us : (string, float * int) Hashtbl.t;
      (** per span name: total self time (µs) and span count *)
  counters : (string * int) list;
  spans : Benchkit.Spans.span list;
  op_log : op list;
}

type instance = {
  run_op : unit -> op;
  layers : traced -> (string * float) list;
      (** the workload's per-layer metrics, from one traced phase *)
  teardown : unit -> unit;
}

type workload = {
  name : string;
  warmup_ops : int;
  setup : seed:int -> host:Host.t -> instance;
}

(* A bench-side span around a call into a layer's public function. With
   no sink installed this is the library's own no-op probe. *)
let span name f = Obs.span ~cat:"bench" name f

let timed f =
  let t0 = Unix.gettimeofday () in
  let r = f () in
  (Unix.gettimeofday () -. t0, r)

let self_us tr name =
  Option.value ~default:(0., 0) (Hashtbl.find_opt tr.self_us name)

let counter tr name =
  float_of_int (Option.value ~default:0 (List.assoc_opt name tr.counters))

let per_op tr x = x /. float_of_int (max 1 tr.ops)

(* Mean self time per span of [names], in µs; 0 when none ran. *)
let mean_self_us tr names =
  let total, calls =
    List.fold_left
      (fun (t, c) name ->
        let t', c' = self_us tr name in
        (t +. t', c + c'))
      (0., 0) names
  in
  if calls = 0 then 0. else total /. float_of_int calls

(* Total self time of [names] per operation, in ms. *)
let self_ms_per_op tr names =
  per_op tr
    (List.fold_left (fun acc name -> acc +. fst (self_us tr name)) 0. names)
  /. 1e3

(* The [search.*] family: time in the DP's spans [dp] and the counters
   the DP already emits, per operation. *)
let search_layers tr ~dp =
  let generated = counter tr "search.solutions_generated" in
  let kept = counter tr "search.solutions_kept" in
  [
    ("search.optimize_s", self_ms_per_op tr dp /. 1e3);
    ("search.nodes", per_op tr (counter tr "search.nodes"));
    ("search.solutions_generated", per_op tr generated);
    ("search.solutions_kept", per_op tr kept);
    ("search.kept_ratio", if generated = 0. then 0. else kept /. generated);
    ("search.memo_hits", per_op tr (counter tr "search.memo_hits"));
    ("search.memo_misses", per_op tr (counter tr "search.memo_misses"));
  ]

let trace_ops ~seconds (inst : instance) =
  let sink = Obs.create ~limit:2_000_000 () in
  let log = ref [] in
  Obs.with_sink sink (fun () ->
      let t0 = Unix.gettimeofday () in
      while !log = [] || Unix.gettimeofday () -. t0 < seconds do
        log := inst.run_op () :: !log
      done);
  if Obs.dropped sink > 0 then
    Format.printf "warning: trace sink dropped %d events@." (Obs.dropped sink);
  let spans = Benchkit.Spans.of_events (Obs.events sink) in
  {
    ops = List.length !log;
    self_us = Benchkit.Spans.self_by_name spans;
    counters = Obs.counters sink;
    spans;
    op_log = List.rev !log;
  }
