(* Bounded LRU cache. The daemon keeps two: the plan cache, keyed on the
   full content fingerprints built by [Server] (tree α-fingerprint +
   extents + machine + grid + memory limit + search knobs) with values
   (tree, plan, rendered text) so a hit can be α-renamed onto the
   requester's intermediate names; and the work memo, keyed on the whole
   request work item with values (extents, planning request, plan-cache
   key). Keys are hashed with [Hashtbl.hash] and compared structurally.

   Recency is a monotonic stamp per entry; eviction removes the entry
   with the smallest stamp. O(capacity) on insert-with-eviction, which
   is fine at the capacities a planning daemon uses (tens to a few
   thousand entries, each worth seconds of search). Deterministic: equal
   access sequences produce equal eviction order (stamps never tie). *)

type ('k, 'v) t = {
  capacity : int;
  lock : Mutex.t;
  table : ('k, 'v entry) Hashtbl.t;
  mutable clock : int;
  mutable hits : int;
  mutable misses : int;
  mutable evictions : int;
}

and 'v entry = { value : 'v; mutable stamp : int }

let create ~capacity =
  if capacity < 0 then invalid_arg "Cache.create: negative capacity";
  {
    capacity;
    lock = Mutex.create ();
    table = Hashtbl.create (max 16 capacity);
    clock = 0;
    hits = 0;
    misses = 0;
    evictions = 0;
  }

let with_lock t f =
  Mutex.lock t.lock;
  Fun.protect ~finally:(fun () -> Mutex.unlock t.lock) f

let tick t =
  t.clock <- t.clock + 1;
  t.clock

let find t key =
  with_lock t (fun () ->
      match Hashtbl.find_opt t.table key with
      | Some e ->
        e.stamp <- tick t;
        t.hits <- t.hits + 1;
        Some e.value
      | None ->
        t.misses <- t.misses + 1;
        None)

let evict_oldest t =
  (* Called with the lock held; table is non-empty. *)
  let victim = ref None in
  Hashtbl.iter
    (fun key e ->
      match !victim with
      | Some (_, stamp) when stamp <= e.stamp -> ()
      | _ -> victim := Some (key, e.stamp))
    t.table;
  match !victim with
  | Some (key, _) ->
    Hashtbl.remove t.table key;
    t.evictions <- t.evictions + 1
  | None -> ()

let add t key value =
  with_lock t (fun () ->
      if t.capacity = 0 then ()
      else begin
        (match Hashtbl.find_opt t.table key with
        | Some _ -> Hashtbl.remove t.table key
        | None ->
          if Hashtbl.length t.table >= t.capacity then evict_oldest t);
        Hashtbl.replace t.table key { value; stamp = tick t }
      end)

let length t = with_lock t (fun () -> Hashtbl.length t.table)

type stats = { hits : int; misses : int; evictions : int; entries : int }

let stats t =
  with_lock t (fun () ->
      {
        hits = t.hits;
        misses = t.misses;
        evictions = t.evictions;
        entries = Hashtbl.length t.table;
      })

let clear t =
  with_lock t (fun () ->
      Hashtbl.reset t.table;
      t.clock <- 0)
