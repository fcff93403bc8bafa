(** A small, crash-safe SPMD layer over OCaml 5 domains.

    Models the message-passing cluster in shared memory: [procs] domains
    run the same function, each with a rank; they synchronize through a
    sense-reversing barrier and exchange messages through per-receiver,
    per-sender FIFO mailboxes (selective receive is O(1) amortized). This
    is the substrate the multicore Cannon executor runs on (no
    [domainslib] dependency — the primitives below are all the engine
    needs).

    {2 Fault tolerance}

    A participant that raises poisons the whole team: an abort flag is
    broadcast into every blocking primitive, so peers parked in
    {!barrier} or {!recv} wake up and unwind instead of deadlocking, all
    domains are joined, and {!run} reports the failure as the structured
    {!Spmd_aborted} carrying the first-failing rank and its exception.

    {2 Pooled teams}

    Every team is a {!Pool}: it spawns its domains once, and successive
    {!Pool.run} calls replay team programs against the same mailboxes
    and barrier. {!run} is a pool made for one program, so it pays a
    [Domain.spawn]/[join] per participant per call — fine for one
    contraction, wasteful for a multi-step plan or a serving loop
    executing plans back to back. The crash-safety contract carries over: a
    poisoned program still unwinds every rank and raises {!Spmd_aborted},
    after which the pool has torn the dead team's state down (mailboxes
    drained, barrier rewound, poison cleared) and is ready for the next
    program. Argument errors are reported as [Tce_error.Error]. *)

exception Spmd_aborted of { rank : int; exn : exn }
(** The run was torn down because [rank] raised [exn] (the {e first}
    failure; later casualties of the teardown are not reported). *)

type 'msg ctx
(** Execution context handed to each participant; ['msg] is the message
    payload type. *)

val rank : _ ctx -> int
val procs : _ ctx -> int

val barrier : _ ctx -> unit
(** Block until every participant has reached the barrier — or until the
    run is poisoned, in which case {!Spmd_aborted} is raised. *)

val send : 'msg ctx -> dst:int -> 'msg -> unit
(** Asynchronous send (unbounded mailbox). Raises {!Spmd_aborted} if the
    run is already poisoned, [Tce_error.Error] on an out-of-range rank. *)

val recv : 'msg ctx -> src:int -> 'msg
(** Block until a message from [src] arrives (FIFO per sender). Raises
    {!Spmd_aborted} if the run is poisoned while waiting,
    [Tce_error.Error] on a bad rank. *)

val sendrecv : 'msg ctx -> dst:int -> 'msg -> src:int -> 'msg
(** Send then receive; safe against the cyclic-shift deadlock because
    sends never block. *)


(** A persistent team: domains spawned once, team programs replayed
    against reusable mailboxes and barriers. *)
module Pool : sig
  type 'msg t

  val create : procs:int -> 'msg t
  (** Spawn [procs - 1] worker domains (the creating domain plays
      rank 0 during {!run}). [procs] must be positive. *)

  val procs : _ t -> int

  val run : 'msg t -> ('msg ctx -> 'a) -> 'a array
  (** Execute one team program on the pooled domains: results by rank,
      {!Spmd_aborted} if any rank raises, after every rank has unwound
      (peers parked in a barrier or receive are woken). After
      an abort the pool remains usable — the dead team's mailboxes,
      barrier and poison flag are reset before raising, so the next
      {!run} starts on a fresh team. Raises [Tce_error.Error] if the
      pool is closed or a program is already in flight (programs do not
      nest). *)

  val close : _ t -> unit
  (** Shut the workers down and join their domains. Idempotent; raises
      [Tce_error.Error] if called while a program is running. *)
end

val with_pool : procs:int -> ('msg Pool.t -> 'a) -> 'a
(** [with_pool ~procs f] runs [f] with a fresh pool, closing it on the
    way out (also on exceptions). *)

val run : procs:int -> ('msg ctx -> 'a) -> 'a array
(** Run [procs] participants to completion (rank 0 executes on the calling
    domain) and collect their results by rank: [with_pool ~procs] running
    one {!Pool.run}. [procs] must be positive ([Tce_error.Error]
    otherwise). If any participant raises, every domain is unblocked and
    joined and {!Spmd_aborted} is raised — the run terminates in bounded
    time instead of deadlocking at the next barrier or receive. Spawns
    [procs - 1] domains per call; use {!Pool} to amortize that over many
    runs. *)
