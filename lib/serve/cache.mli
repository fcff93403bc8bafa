(** Bounded LRU cache (thread-safe), generic in its key.

    The daemon keeps two: the plan cache, keyed on the serving layer's
    full content fingerprints (strings) and holding the cached tree, its
    plan and the plan's rendered text, so hits can be α-renamed onto the
    requester's names via {!Tce_core.Search.rename_plan}; and the work
    memo, keyed on the whole request work item. Keys are hashed with
    [Hashtbl.hash] and compared with structural equality, so a key type
    must be free of functions and of values whose structural equality is
    coarser than the caller's (the memo adds each float's bits, because
    [0.0] and [-0.0] compare equal).

    Eviction is least-recently-used with a strictly monotonic recency
    stamp, so for equal access sequences the eviction order is
    deterministic — stamps never tie. A capacity of [0] disables
    caching ([add] is a no-op, every [find] a miss). *)

type ('k, 'v) t

val create : capacity:int -> ('k, 'v) t
(** Raises [Invalid_argument] on negative capacity. *)

val find : ('k, 'v) t -> 'k -> 'v option
(** Refreshes recency on hit; counts a hit or a miss. *)

val add : ('k, 'v) t -> 'k -> 'v -> unit
(** Inserts (or refreshes) the binding, evicting the least recently used
    entry first when at capacity. *)

val length : ('k, 'v) t -> int

type stats = { hits : int; misses : int; evictions : int; entries : int }

val stats : ('k, 'v) t -> stats
val clear : ('k, 'v) t -> unit
