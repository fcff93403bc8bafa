module Json = Tce_util.Json

let wall_pid = 1
let sim_pid = 2

type event = {
  name : string;
  cat : string;
  ph : [ `X | `I | `C ];
  pid : int;
  tid : int;
  ts_us : float;
  dur_us : float;
  value : float;
  args : (string * string) list;
}

type sink = {
  limit : int;
  lock : Mutex.t;
  mutable events_rev : event list;
  mutable n_events : int;
  mutable n_dropped : int;
  counters : (string, int ref) Hashtbl.t;
  thread_names : ((int * int), string) Hashtbl.t;
  epoch : float;  (* wall-clock origin: spans record [now - epoch] *)
}

let create ?(limit = 200_000) () =
  if limit < 0 then invalid_arg "Obs.create: negative limit";
  {
    limit;
    lock = Mutex.create ();
    events_rev = [];
    n_events = 0;
    n_dropped = 0;
    counters = Hashtbl.create 32;
    thread_names = Hashtbl.create 16;
    epoch = Unix.gettimeofday ();
  }

(* The one global probes consult. A single atomic load decides whether any
   probe does work, so with no sink installed instrumented hot paths pay
   only that load. *)
let current : sink option Atomic.t = Atomic.make None

let install s = Atomic.set current (Some s)
let uninstall () = Atomic.set current None
let enabled () = Atomic.get current <> None

let with_sink s f =
  install s;
  Fun.protect ~finally:uninstall f

let locked s f =
  Mutex.lock s.lock;
  Fun.protect ~finally:(fun () -> Mutex.unlock s.lock) f

let record s e =
  locked s (fun () ->
      if s.n_events < s.limit then begin
        s.events_rev <- e :: s.events_rev;
        s.n_events <- s.n_events + 1
      end
      else s.n_dropped <- s.n_dropped + 1)

let span ?(cat = "") ?(tid = 0) ?(args = []) name f =
  match Atomic.get current with
  | None -> f ()
  | Some s ->
    let t0 = Unix.gettimeofday () in
    let finish () =
      let t1 = Unix.gettimeofday () in
      record s
        {
          name;
          cat;
          ph = `X;
          pid = wall_pid;
          tid;
          ts_us = (t0 -. s.epoch) *. 1e6;
          dur_us = (t1 -. t0) *. 1e6;
          value = 0.;
          args;
        }
    in
    (match f () with
    | v ->
      finish ();
      v
    | exception e ->
      finish ();
      raise e)

let span_sim ?(cat = "") ?(tid = 0) ?(args = []) name ~t0 ~t1 =
  match Atomic.get current with
  | None -> ()
  | Some s ->
    record s
      {
        name;
        cat;
        ph = `X;
        pid = sim_pid;
        tid;
        ts_us = t0 *. 1e6;
        dur_us = (t1 -. t0) *. 1e6;
        value = 0.;
        args;
      }

let instant ?(cat = "") ?(tid = 0) ?(args = []) name =
  match Atomic.get current with
  | None -> ()
  | Some s ->
    record s
      {
        name;
        cat;
        ph = `I;
        pid = wall_pid;
        tid;
        ts_us = (Unix.gettimeofday () -. s.epoch) *. 1e6;
        dur_us = 0.;
        value = 0.;
        args;
      }

let count ?(by = 1) name =
  match Atomic.get current with
  | None -> ()
  | Some s ->
    locked s (fun () ->
        match Hashtbl.find_opt s.counters name with
        | Some r -> r := !r + by
        | None -> Hashtbl.replace s.counters name (ref by))

let set_thread_name ~pid ~tid name =
  match Atomic.get current with
  | None -> ()
  | Some s -> locked s (fun () -> Hashtbl.replace s.thread_names (pid, tid) name)

let events s = locked s (fun () -> List.rev s.events_rev)

let counters s =
  locked s (fun () ->
      Hashtbl.fold (fun k r acc -> (k, !r) :: acc) s.counters []
      |> List.sort (fun (a, _) (b, _) -> String.compare a b))

let dropped s = locked s (fun () -> s.n_dropped)

let thread_names s =
  locked s (fun () ->
      Hashtbl.fold (fun k v acc -> (k, v) :: acc) s.thread_names []
      |> List.sort compare)

(* {2 Chrome trace-event JSON} *)

let json_int k = Json.Num (float_of_int k)

(* One event object. Its fields come in a fixed order, so a recording
   always exports to the same bytes. A span whose clock ran backwards
   gets duration 0. *)
let event_json e =
  let ph, dur =
    match e.ph with
    | `X -> ("X", [ ("dur", Json.Num (Float.max 0. e.dur_us)) ])
    | `I -> ("i", [])
    | `C -> ("C", [])
  in
  let args =
    match e.ph with
    | `C -> [ ("args", Json.Obj [ ("value", Json.Num e.value) ]) ]
    | `X | `I when e.args = [] -> []
    | `X | `I ->
      [ ("args", Json.Obj (List.map (fun (k, v) -> (k, Json.Str v)) e.args)) ]
  in
  Json.Obj
    ((("name", Json.Str e.name)
      :: (if e.cat = "" then [] else [ ("cat", Json.Str e.cat) ]))
    @ (("ph", Json.Str ph) :: ("ts", Json.Num e.ts_us) :: dur)
    @ (("pid", json_int e.pid) :: ("tid", json_int e.tid) :: args))

let metadata_json kind ~pid ~tid name =
  Json.Obj
    [
      ("name", Json.Str kind);
      ("ph", Json.Str "M");
      ("pid", json_int pid);
      ("tid", json_int tid);
      ("args", Json.Obj [ ("name", Json.Str name) ]);
    ]

let to_chrome_json s =
  (* One terminal sample per aggregate counter, on a dedicated track. *)
  let counter (name, v) =
    {
      name;
      cat = "counter";
      ph = `C;
      pid = wall_pid;
      tid = 0;
      ts_us = 0.;
      dur_us = 0.;
      value = float_of_int v;
      args = [];
    }
  in
  let objects =
    List.map event_json (events s @ List.map counter (counters s))
    @ List.map
        (fun ((pid, tid), name) -> metadata_json "thread_name" ~pid ~tid name)
        (thread_names s)
    (* Label the two clock domains. *)
    @ List.map
        (fun (pid, name) -> metadata_json "process_name" ~pid ~tid:0 name)
        [ (wall_pid, "wall clock"); (sim_pid, "simulated clock") ]
  in
  "{\"traceEvents\":["
  ^ String.concat ",\n" (List.map Json.to_string objects)
  ^ "]}"

let write_chrome_json s ~path =
  match
    let oc = open_out path in
    Fun.protect
      ~finally:(fun () -> close_out_noerr oc)
      (fun () -> output_string oc (to_chrome_json s))
  with
  | () -> Ok ()
  | exception Sys_error msg -> Error msg

(* {2 Deterministic summary} *)

let summary s =
  let evs = events s in
  let ctrs = counters s in
  let b = Buffer.create 1024 in
  (* (pid, tid, name) -> (count, total sim seconds). Wall durations are
     nondeterministic, so only sim-clock spans report time. *)
  let tbl = Hashtbl.create 64 in
  List.iter
    (fun e ->
      match e.ph with
      | `X ->
        let key = (e.pid, e.tid, e.name) in
        let n, t =
          Option.value (Hashtbl.find_opt tbl key) ~default:(0, 0.)
        in
        let t =
          if e.pid = sim_pid then t +. (e.dur_us /. 1e6) else t
        in
        Hashtbl.replace tbl key (n + 1, t)
      | `I | `C -> ())
    evs;
  let rows =
    Hashtbl.fold (fun k v acc -> (k, v) :: acc) tbl [] |> List.sort compare
  in
  List.iter
    (fun ((pid, tid, name), (n, t)) ->
      let clock = if pid = sim_pid then "sim" else "wall" in
      if pid = sim_pid then
        Buffer.add_string b
          (Printf.sprintf "span %s/%d %s: count=%d total=%.9fs\n" clock tid
             name n t)
      else
        Buffer.add_string b
          (Printf.sprintf "span %s/%d %s: count=%d\n" clock tid name n))
    rows;
  List.iter
    (fun (name, v) ->
      Buffer.add_string b (Printf.sprintf "counter %s = %d\n" name v))
    ctrs;
  Buffer.add_string b (Printf.sprintf "dropped = %d\n" (dropped s));
  Buffer.contents b

(* {2 Chrome trace validation} *)

module Trace_check = struct
  let check_event k v =
    let fail fmt = Printf.ksprintf (fun m -> Error m) fmt in
    match v with
    | Json.Obj _ -> (
      let field key = Json.member key v in
      match (field "name", field "ph") with
      | None, _ -> fail "event %d: missing \"name\"" k
      | Some (Json.Str _), Some (Json.Str ph) -> (
        let known =
          List.mem ph [ "B"; "E"; "X"; "I"; "i"; "C"; "M"; "P"; "b"; "e"; "n" ]
        in
        if not known then fail "event %d: unknown ph %S" k ph
        else
          let num key =
            match field key with
            | Some (Json.Num _) -> Ok ()
            | Some _ -> fail "event %d: %S is not a number" k key
            | None -> fail "event %d: missing %S" k key
          in
          let ( let* ) = Result.bind in
          let* () = num "pid" in
          let* () = num "tid" in
          if ph = "M" then Ok ()  (* metadata events carry no timestamp *)
          else
            let* () = num "ts" in
            if ph = "X" then num "dur" else Ok ())
      | Some (Json.Str _), _ -> fail "event %d: missing or non-string \"ph\"" k
      | Some _, _ -> fail "event %d: \"name\" is not a string" k)
    | _ -> fail "event %d: not an object" k

  let validate str =
    match Json.parse str with
    | Error msg -> Error ("invalid JSON: " ^ msg)
    | Ok json -> (
      let events =
        match json with
        | Json.Arr evs -> Ok evs
        | Json.Obj _ -> (
          match Json.member "traceEvents" json with
          | Some (Json.Arr evs) -> Ok evs
          | Some _ -> Error "\"traceEvents\" is not an array"
          | None -> Error "object form lacks \"traceEvents\"")
        | _ -> Error "top level is neither an array nor an object"
      in
      match events with
      | Error _ as e -> e
      | Ok evs ->
        let rec go k = function
          | [] -> Ok k
          | e :: rest -> (
            match check_event k e with
            | Ok () -> go (k + 1) rest
            | Error _ as err -> err)
        in
        go 0 evs)

  let validate_file path =
    match
      let ic = open_in_bin path in
      Fun.protect
        ~finally:(fun () -> close_in_noerr ic)
        (fun () -> really_input_string ic (in_channel_length ic))
    with
    | exception Sys_error msg -> Error msg
    | contents -> validate contents
end

(* {2 Latency histograms} *)

module Hist = struct
  (* Log-bucketed: bucket [i] covers durations in
     [lo * growth^i, lo * growth^(i+1)), with [lo] = 1 us and
     [growth] = 1.25 — ~2.4% worst-case quantile error over a
     1 us .. ~1000 s range in 96 buckets of constant memory. Underflow
     lands in bucket 0, overflow in the last bucket. Thread-safe. *)
  let lo = 1e-6
  let growth = 1.25
  let nbuckets = 96

  type t = {
    lock : Mutex.t;
    buckets : int array;
    mutable n : int;
    mutable sum : float;
    mutable vmax : float;
  }

  let create () =
    {
      lock = Mutex.create ();
      buckets = Array.make nbuckets 0;
      n = 0;
      sum = 0.0;
      vmax = 0.0;
    }

  let bucket_of v =
    if v <= lo then 0
    else
      let i = int_of_float (Float.log (v /. lo) /. Float.log growth) in
      if i >= nbuckets then nbuckets - 1 else i

  (* Geometric midpoint of a bucket: the value reported for any quantile
     that falls inside it. *)
  let bucket_value i = lo *. (growth ** (float_of_int i +. 0.5))

  let add t v =
    if Float.is_nan v || v < 0.0 then
      invalid_arg "Obs.Hist.add: duration must be a nonnegative number";
    Mutex.lock t.lock;
    t.buckets.(bucket_of v) <- t.buckets.(bucket_of v) + 1;
    t.n <- t.n + 1;
    t.sum <- t.sum +. v;
    if v > t.vmax then t.vmax <- v;
    Mutex.unlock t.lock

  let count t =
    Mutex.lock t.lock;
    let n = t.n in
    Mutex.unlock t.lock;
    n

  let mean t =
    Mutex.lock t.lock;
    let m = if t.n = 0 then 0.0 else t.sum /. float_of_int t.n in
    Mutex.unlock t.lock;
    m

  let max_value t =
    Mutex.lock t.lock;
    let m = t.vmax in
    Mutex.unlock t.lock;
    m

  let percentile t p =
    if Float.is_nan p || p < 0.0 || p > 100.0 then
      invalid_arg "Obs.Hist.percentile: p must be in [0, 100]";
    Mutex.lock t.lock;
    let v =
      if t.n = 0 then 0.0
      else begin
        (* The smallest bucket whose cumulative count reaches rank
           ceil(p/100 * n), rank at least 1. *)
        let rank =
          Stdlib.max 1 (int_of_float (Float.ceil (p /. 100.0 *. float_of_int t.n)))
        in
        let rec go i acc =
          if i >= nbuckets then t.vmax
          else
            let acc = acc + t.buckets.(i) in
            if acc >= rank then Float.min (bucket_value i) t.vmax else go (i + 1) acc
        in
        go 0 0
      end
    in
    Mutex.unlock t.lock;
    v
end
