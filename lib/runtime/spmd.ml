open! Import

exception Spmd_aborted of { rank : int; exn : exn }

let () =
  Printexc.register_printer (function
    | Spmd_aborted { rank; exn } ->
      Some
        (Printf.sprintf "Spmd_aborted (rank %d: %s)" rank
           (Printexc.to_string exn))
    | _ -> None)

type 'msg mailbox = {
  lock : Mutex.t;
  nonempty : Condition.t;
  from : 'msg Queue.t array;  (* per-sender FIFO, indexed by sender *)
}

type 'msg shared = {
  nprocs : int;
  boxes : 'msg mailbox array;  (* indexed by receiver *)
  bar_lock : Mutex.t;
  bar_cond : Condition.t;
  mutable bar_count : int;
  mutable bar_sense : bool;
  abort : (int * exn) option Atomic.t;
      (* first participant to raise, with its exception; poisons the run *)
}

type 'msg ctx = { shared : 'msg shared; my_rank : int }

let rank t = t.my_rank
let procs t = t.shared.nprocs

(* Record the failure (first raiser wins) and wake every sleeper: barrier
   waiters and receivers re-check the abort flag whenever signalled, so
   one participant's exception tears the whole team down instead of
   deadlocking it. Each broadcast happens under the condition's own lock,
   so a waiter that checked the flag and is about to block cannot miss it. *)
let poison shared ~rank ~exn =
  if Atomic.compare_and_set shared.abort None (Some (rank, exn)) then begin
    Mutex.lock shared.bar_lock;
    Condition.broadcast shared.bar_cond;
    Mutex.unlock shared.bar_lock;
    Array.iter
      (fun box ->
        Mutex.lock box.lock;
        Condition.broadcast box.nonempty;
        Mutex.unlock box.lock)
      shared.boxes
  end

let check_abort t =
  match Atomic.get t.shared.abort with
  | Some (rank, exn) -> raise (Spmd_aborted { rank; exn })
  | None -> ()

let barrier_impl t =
  let s = t.shared in
  check_abort t;
  Mutex.lock s.bar_lock;
  let sense = s.bar_sense in
  s.bar_count <- s.bar_count + 1;
  if s.bar_count = s.nprocs then begin
    s.bar_count <- 0;
    s.bar_sense <- not sense;
    Condition.broadcast s.bar_cond
  end
  else
    while s.bar_sense = sense && Atomic.get s.abort = None do
      Condition.wait s.bar_cond s.bar_lock
    done;
  Mutex.unlock s.bar_lock;
  check_abort t

(* The tracing wrappers keep the hot path at one atomic load when no sink
   is installed: probe arguments (and the span closure) are only built
   inside the [Obs.enabled] branch. *)
let barrier t =
  if Obs.enabled () then
    Obs.span ~cat:"spmd" ~tid:t.my_rank "barrier" (fun () -> barrier_impl t)
  else barrier_impl t

let send_impl t ~dst msg =
  if dst < 0 || dst >= t.shared.nprocs then
    Tce_error.failf "Spmd.send: bad rank %d (team of %d)" dst t.shared.nprocs;
  check_abort t;
  let box = t.shared.boxes.(dst) in
  Mutex.lock box.lock;
  Queue.push msg box.from.(t.my_rank);
  Condition.broadcast box.nonempty;
  Mutex.unlock box.lock

let send t ~dst msg =
  if Obs.enabled () then begin
    Obs.count "spmd.sends";
    Obs.span ~cat:"spmd" ~tid:t.my_rank
      ~args:[ ("dst", string_of_int dst) ]
      "send" (fun () -> send_impl t ~dst msg)
  end
  else send_impl t ~dst msg

let recv_impl t ~src =
  if src < 0 || src >= t.shared.nprocs then
    Tce_error.failf "Spmd.recv: bad rank %d (team of %d)" src t.shared.nprocs;
  let box = t.shared.boxes.(t.my_rank) in
  let q = box.from.(src) in
  Mutex.lock box.lock;
  let rec take () =
    if not (Queue.is_empty q) then Queue.pop q
    else if Atomic.get t.shared.abort <> None then begin
      Mutex.unlock box.lock;
      check_abort t;
      assert false
    end
    else begin
      Condition.wait box.nonempty box.lock;
      take ()
    end
  in
  let payload = take () in
  Mutex.unlock box.lock;
  payload

let recv t ~src =
  if Obs.enabled () then begin
    Obs.count "spmd.recvs";
    Obs.span ~cat:"spmd" ~tid:t.my_rank
      ~args:[ ("src", string_of_int src) ]
      "recv-wait" (fun () -> recv_impl t ~src)
  end
  else recv_impl t ~src

let sendrecv t ~dst msg ~src =
  send t ~dst msg;
  recv t ~src

let make_shared procs =
  {
    nprocs = procs;
    boxes =
      Array.init procs (fun _ ->
          {
            lock = Mutex.create ();
            nonempty = Condition.create ();
            from = Array.init procs (fun _ -> Queue.create ());
          });
    bar_lock = Mutex.create ();
    bar_cond = Condition.create ();
    bar_count = 0;
    bar_sense = false;
    abort = Atomic.make None;
  }

(* Restore a shared team state to pristine after a program has fully
   unwound (every participant returned or raised): drop stale messages an
   unbalanced or aborted program left behind, rewind the barrier, clear
   the poison. Only sound when no participant is inside a primitive. *)
let reset_shared shared =
  Array.iter
    (fun box ->
      Mutex.lock box.lock;
      Array.iter Queue.clear box.from;
      Mutex.unlock box.lock)
    shared.boxes;
  Mutex.lock shared.bar_lock;
  shared.bar_count <- 0;
  shared.bar_sense <- false;
  Mutex.unlock shared.bar_lock;
  Atomic.set shared.abort None

(* Run [f] as participant [r], translating its fate: a normal return
   stores nothing here (the program's wrapper does), a primary failure
   poisons the team, a secondary [Spmd_aborted] (unblocked by another
   rank's poison) is absorbed — the originator is already recorded. *)
let participate shared r f =
  match f { shared; my_rank = r } with
  | () -> ()
  | exception Spmd_aborted _ -> ()
  | exception e -> poison shared ~rank:r ~exn:e

module Pool = struct
  (* A worker parks on its slot waiting for the next team program; the
     job is pre-wrapped as [ctx -> unit] so one pool serves programs of
     any result type without the workers knowing. *)
  type 'msg job = Job of ('msg ctx -> unit) | Quit

  type 'msg slot = {
    slot_lock : Mutex.t;
    slot_cond : Condition.t;
    mutable job : 'msg job option;
  }

  type 'msg t = {
    shared : 'msg shared;
    slots : 'msg slot array;  (* one per worker, ranks 1 .. procs-1 *)
    done_lock : Mutex.t;
    done_cond : Condition.t;
    mutable done_count : int;
    mutable domains : unit Domain.t list;
    mutable closed : bool;
    mutable running : bool;
  }

  let post slot job =
    Mutex.lock slot.slot_lock;
    slot.job <- Some job;
    Condition.signal slot.slot_cond;
    Mutex.unlock slot.slot_lock

  let next_job slot =
    Mutex.lock slot.slot_lock;
    while slot.job = None do
      Condition.wait slot.slot_cond slot.slot_lock
    done;
    let job = Option.get slot.job in
    slot.job <- None;
    Mutex.unlock slot.slot_lock;
    job

  let create ~procs =
    if procs <= 0 then
      Tce_error.failf "Spmd.Pool.create: procs must be positive (got %d)"
        procs;
    let shared = make_shared procs in
    let slots =
      Array.init (procs - 1) (fun _ ->
          {
            slot_lock = Mutex.create ();
            slot_cond = Condition.create ();
            job = None;
          })
    in
    let done_lock = Mutex.create () in
    let done_cond = Condition.create () in
    let pool =
      {
        shared;
        slots;
        done_lock;
        done_cond;
        done_count = 0;
        domains = [];
        closed = false;
        running = false;
      }
    in
    let worker k () =
      let r = k + 1 in
      let rec loop () =
        match next_job slots.(k) with
        | Quit -> ()
        | Job f ->
          (if Obs.enabled () then
             Obs.span ~cat:"pool" ~tid:r "pool.job" (fun () ->
                 participate shared r f)
           else participate shared r f);
          (* Signal completion only after the program has fully unwound
             on this rank; the driver resets the team once every rank has
             signalled, so no worker is ever inside a primitive when the
             mailboxes and barrier are rewound. *)
          Mutex.lock done_lock;
          pool.done_count <- pool.done_count + 1;
          Condition.signal done_cond;
          Mutex.unlock done_lock;
          loop ()
      in
      loop ()
    in
    pool.domains <- List.init (procs - 1) (fun k -> Domain.spawn (worker k));
    pool

  let procs pool = pool.shared.nprocs

  let run pool f =
    if pool.closed then Tce_error.failf "Spmd.Pool.run: pool is closed";
    if pool.running then
      Tce_error.failf "Spmd.Pool.run: pool is already running a program";
    pool.running <- true;
    Fun.protect
      ~finally:(fun () -> pool.running <- false)
      (fun () ->
        let n = pool.shared.nprocs in
        let results = Array.make n None in
        Mutex.lock pool.done_lock;
        pool.done_count <- 0;
        Mutex.unlock pool.done_lock;
        let program ctx = results.(ctx.my_rank) <- Some (f ctx) in
        if Obs.enabled () then begin
          Obs.count "spmd.pool.jobs";
          Obs.instant ~cat:"pool" "pool.post"
        end;
        Array.iter (fun slot -> post slot (Job program)) pool.slots;
        (if Obs.enabled () then
           Obs.span ~cat:"pool" ~tid:0 "pool.job" (fun () ->
               participate pool.shared 0 program)
         else participate pool.shared 0 program);
        (* Wait for every worker to finish this program. Workers park on
           their slots afterwards, so once the count is full the team is
           quiescent and [reset_shared] is safe; the mutex also gives the
           driver a happens-before edge over the workers' result (and
           poison) writes. *)
        Mutex.lock pool.done_lock;
        while pool.done_count < n - 1 do
          Condition.wait pool.done_cond pool.done_lock
        done;
        Mutex.unlock pool.done_lock;
        let verdict = Atomic.get pool.shared.abort in
        (* Tear the aborted team state down and rearm: the next [run]
           gets a pristine team whether or not this one was poisoned. *)
        reset_shared pool.shared;
        match verdict with
        | Some (rank, exn) -> raise (Spmd_aborted { rank; exn })
        | None ->
          Array.map
            (function
              | Some v -> v
              | None ->
                Tce_error.failf "Spmd: participant produced no result")
            results)

  let close pool =
    if not pool.closed then begin
      if pool.running then
        Tce_error.failf "Spmd.Pool.close: a program is still running";
      pool.closed <- true;
      Array.iter (fun slot -> post slot Quit) pool.slots;
      List.iter Domain.join pool.domains
    end
end

let with_pool ~procs f =
  let pool = Pool.create ~procs in
  Fun.protect ~finally:(fun () -> Pool.close pool) (fun () -> f pool)

let run ~procs f = with_pool ~procs (fun pool -> Pool.run pool f)
