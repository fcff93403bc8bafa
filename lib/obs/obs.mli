(** Unified tracing and metrics for the whole stack.

    A structured observability layer on stdlib and unix: every
    subsystem — the DP {!Tce_core.Search}, the discrete-event
    {!Tce_machine.Simulate} replay, the real {!Tce_runtime.Spmd} /
    {!Tce_runtime.Multicore} engines and the {!Tce_tensor.Kernel}
    microkernel dispatch — emits spans, instants and named counters through
    this module, and two exporters turn a recording into either
    Chrome trace-event JSON (loadable in Perfetto / chrome://tracing,
    printed and checked with {!Tce_util.Json}) or a deterministic
    plain-text summary for tests.

    {2 Clocks}

    Two time bases coexist in one trace, separated by process ID:

    - {b wall clock} ([pid = wall_pid]): real elapsed time, measured with
      [Unix.gettimeofday] relative to the sink's creation. Per-rank SPMD
      activity (send-wait, recv-wait, multiply, barrier) lives
      here, one Chrome thread (tid) per rank.
    - {b simulated clock} ([pid = sim_pid]): the discrete-event cluster's
      clock. {!span_sim} records a span at explicit [t0]/[t1] simulated
      seconds, so a Simulate replay produces per-Cannon-step comm and
      compute spans positioned on the model's own timeline, bit-identical
      across runs.

    {2 Cost discipline}

    When no sink is installed every probe is a no-op behind a single
    {!enabled} check — no allocation, no clock read, no lock — so
    instrumented hot paths (Spmd primitives, the kernel) cost one atomic
    load when tracing is off. Recording is thread-safe: SPMD domains
    append concurrently under the sink's lock. The sink bounds its event
    buffer ([limit], default 200k); overflow events are counted in
    {!dropped}, never stored. *)

val wall_pid : int
(** Chrome process ID of the wall-clock track group (1). *)

val sim_pid : int
(** Chrome process ID of the simulated-clock track group (2). *)

type event = {
  name : string;
  cat : string;  (** Chrome category, e.g. "spmd", "comm", "search" *)
  ph : [ `X  (** complete span *) | `I  (** instant *) | `C  (** counter *) ];
  pid : int;
  tid : int;
  ts_us : float;  (** start, microseconds on the track's clock *)
  dur_us : float;  (** [`X] only; 0 otherwise *)
  value : float;  (** [`C] only; 0 otherwise *)
  args : (string * string) list;
}

type sink

val create : ?limit:int -> unit -> sink
(** A fresh recording buffer. [limit] bounds the number of stored events
    (default 200_000); raises [Invalid_argument] when negative. *)

val install : sink -> unit
(** Make [sink] the recording target of every probe. *)

val uninstall : unit -> unit
(** Disable recording; probes return to no-ops. *)

val enabled : unit -> bool
(** True iff a sink is installed (one atomic load — the guard every probe
    uses, exposed so callers can skip argument construction too). *)

val with_sink : sink -> (unit -> 'a) -> 'a
(** [with_sink s f] installs [s], runs [f], and uninstalls on the way out
    (exceptions included). *)

(** {2 Probes} — all are no-ops when no sink is installed. *)

val span : ?cat:string -> ?tid:int -> ?args:(string * string) list ->
  string -> (unit -> 'a) -> 'a
(** [span name f] times [f ()] on the wall clock and records a complete
    event on [wall_pid]/[tid] (default tid 0). The span is recorded even
    when [f] raises. *)

val span_sim : ?cat:string -> ?tid:int -> ?args:(string * string) list ->
  string -> t0:float -> t1:float -> unit
(** Record a complete span on the simulated clock ([sim_pid]), from [t0]
    to [t1] simulated seconds. *)

val instant : ?cat:string -> ?tid:int -> ?args:(string * string) list ->
  string -> unit
(** A zero-duration marker on the wall clock. *)

val count : ?by:int -> string -> unit
(** [count name] bumps the named aggregate counter by [by] (default 1).
    Counters appear, sorted by name, in both exporters. *)

val set_thread_name : pid:int -> tid:int -> string -> unit
(** Label a Chrome track (emitted as a [thread_name] metadata event). *)

(** {2 Introspection and export} *)

val events : sink -> event list
(** Recorded events, oldest first. *)

val counters : sink -> (string * int) list
(** Aggregate counters, sorted by name. *)

val dropped : sink -> int
(** Events discarded because the sink was full. *)

val to_chrome_json : sink -> string
(** The recording as a Chrome trace-event JSON object
    ([{"traceEvents": [...]}], one event per line, each printed by
    {!Tce_util.Json.to_string}): events in recording order, then one
    counter sample per aggregate counter, then thread-name metadata. *)

val write_chrome_json : sink -> path:string -> (unit, string) result

val summary : sink -> string
(** Deterministic plain-text digest: per-track span counts (with total
    simulated seconds for sim-clock spans — wall durations are elided so
    the text is stable across runs), then counters, then the drop count. *)

(** {2 Chrome trace validation} *)

module Trace_check : sig
  val validate : string -> (int, string) result
  (** Parse a JSON string with {!Tce_util.Json.parse} (input nested
      deeper than {!Tce_util.Json.max_depth} is an [Error] naming the
      limit) and check it is a Chrome trace-event file: either a bare
      event array or an object with a [traceEvents] array, where every
      event is an object with a string [name], a one-of-[B E X I i C M P]
      string [ph], numeric [ts] (except [M] metadata), numeric [pid] and
      [tid], and a numeric [dur] when [ph = "X"]. Returns the event
      count. *)

  val validate_file : string -> (int, string) result
end

(** {2 Latency histograms}

    A small thread-safe log-bucketed duration histogram for long-running
    services (the planning daemon's p50/p99 request latencies). Constant
    memory: 96 geometric buckets covering 1 µs to ~1000 s with ~2.4%
    worst-case quantile error. Independent of the sink — histograms are
    explicit values, not probes, so a server can report latency
    percentiles whether or not tracing is on. *)
module Hist : sig
  type t

  val create : unit -> t

  val add : t -> float -> unit
  (** Record one duration in seconds. Raises [Invalid_argument] on NaN or
      negative values. *)

  val count : t -> int
  val mean : t -> float

  val max_value : t -> float
  (** Largest recorded value (exact, not bucketed); 0 when empty. *)

  val percentile : t -> float -> float
  (** [percentile t p] for [p] in [[0, 100]]: the geometric midpoint of
      the bucket holding the rank-⌈p/100·n⌉ sample (clamped to
      {!max_value}); 0 when empty. Raises [Invalid_argument] outside
      [[0, 100]]. *)
end
