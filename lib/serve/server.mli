(** The planning daemon's engine: bounded admission queue, worker
    domains that each run one sequential search at a time (so [workers]
    requests are planned at once), an LRU plan cache keyed on the
    α-renamed content fingerprint, per-request deadlines with
    cooperative cancellation of the search and of a [simulate] replay,
    and one degradation ladder (exact DP → beam search → greedy seed
    plan → [deadline_exceeded]).

    A repeated request costs a cache probe and a reply: an LRU memo
    keyed on the whole work item keeps each completed derivation (parse,
    opmin, machine, cache key), and each plan-cache entry keeps its
    plan's rendered text, which a hit needing no α-renaming replies with
    as is. The memo holds [cache_capacity] entries too.

    Transport-agnostic: callers feed JSON-lines strings in via
    {!submit_line} and receive the response line through a callback, so
    the same engine serves stdio (see [bin/tce_serve]), an in-process
    test harness, or any future socket front end. See DESIGN.md §13.

    Every work item becomes one {!Tce_core.Search.request}: a single
    tree or a multi-term sum (DESIGN.md §16), on the uniform square grid
    or a node-aware shape search (DESIGN.md §17), under the fusion mode
    and objective of the request's [fusion] field; a request failing
    {!Tce_core.Search.check} (a sum under [none] or [memmin]) is an
    [invalid_request]. One cache probe, one ladder keyed on strategy
    and one renderer serve every combination; a sum is cached under the
    whole-sum fingerprint, disjoint by construction from every
    single-term key. *)

open! Import

type degrade_mode =
  [ `Auto
    (** exact DP inside 60% of the budget, then beam 4 inside 80% of
        what is left, then the greedy seed *)
  | `Always
    (** beam search on every request, then the greedy seed (responses
        are [approximate]) *)
  | `Never  (** exact only; a missed deadline is [deadline_exceeded] *) ]

type config = {
  workers : int;  (** worker domains consuming the queue *)
  queue_capacity : int;  (** admission bound; beyond it requests are rejected *)
  cache_capacity : int;
      (** plan-cache entries, and work-memo entries; 0 disables both *)
  default_deadline_ms : float option;
      (** applied when a request carries no [deadline_ms] *)
  degrade : degrade_mode;
  debug_ops : bool;
      (** honour [debug_sleep] / [debug_crash] (tests and load tools) *)
}

val default_config :
  ?workers:int -> ?queue_capacity:int -> ?cache_capacity:int
  -> ?default_deadline_ms:float -> ?search_jobs:int -> ?degrade:degrade_mode
  -> ?debug_ops:bool -> unit -> config
(** Defaults: 2 workers, queue 32, cache 128, no default deadline,
    [`Auto] degradation, debug ops off. [?search_jobs] is accepted only
    as 1 and stored nowhere (the search is sequential): the benchmark's
    [perfbench/serve_mix.ml] still passes it, and it goes when that call
    drops it. The overload Retry-After hint starts at 25 ms and doubles
    per consecutive rejection (the fault layer's [timeout ·
    backoff^(k-1)] law), floored by the observed service time times the
    queue ahead. Raises [Invalid_argument] on out-of-range values. *)

type t

val create : config -> t
(** Spawn the worker domains. The caller must eventually {!drain} (or
    {!close}) to join them. *)

val submit : t -> Proto.request -> reply:(Json.t -> unit) -> unit
(** Route one parsed request. Admin ops (health/stats/drain) are
    answered synchronously on the calling thread — they bypass the
    queue, so the daemon stays introspectable under saturation; [drain]
    blocks until the queue and all in-flight work finish. Work ops are
    enqueued ([reply] fires later, on a worker domain) or rejected
    immediately with a typed [overloaded] / [draining] response. [reply]
    must be thread-safe; exceptions it raises are swallowed. *)

val submit_line : t -> string -> reply:(string -> unit) -> bool
(** {!submit} for one raw JSON line; malformed input gets a typed
    [parse_error] / [invalid_request] response. The reply string is a
    single line without the trailing newline. Returns [true] iff the
    line was an admitted [drain] — the server has then drained and
    answered it — so a stdio front end knows to stop reading; a line
    that names [drain] but fails to parse returns [false]. *)

val call : t -> Proto.request -> Json.t
(** Synchronous {!submit}: blocks the calling thread until the response
    arrives. Test/tool convenience. *)

val call_line : t -> string -> string
(** Synchronous {!submit_line}. *)

val drain : t -> unit
(** Stop admitting work, wait for the queue and in-flight requests to
    finish. Idempotent. Workers exit; submit afterwards answers
    [draining]. *)

val close : t -> unit
(** Join the worker domains (marking the server drained and closed
    first). Pending queued work is abandoned unreplied — call {!drain}
    first for a graceful shutdown. *)

type stats = {
  queue_depth : int;
  accepted : int;
  rejected : int;
  completed : int;
  request_errors : int;
  deadline_exceeded : int;
  degraded : int;  (** requests answered by the beam fallback *)
  greedy_seeded : int;
      (** requests answered by the last-rung greedy seed plan *)
  worker_crashes : int;
  cache : Cache.stats;
}

val stats : t -> stats

val queue_depth : t -> int

val cache_key_of_work : Proto.work -> (string, string) result
(** The plan-cache key a work request maps to (parse → tree or sum →
    machine → fingerprints; a shape search keys on its processor count
    and topology). Derived afresh on every call, bypassing the work
    memo. Exposed for the cache-key tests. *)
