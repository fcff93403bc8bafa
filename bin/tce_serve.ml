(* tce_serve — the planning daemon's stdio front end.

   Reads one JSON request per line on stdin, writes one JSON response
   per line on stdout (responses may arrive out of order under several
   workers; match them by "id"). All engine behaviour — admission
   control, plan cache, deadlines, degradation, crash isolation — lives
   in Tce.Server; this file only owns the transport. EOF on stdin
   drains the server and exits; a "drain" request does the same. *)

open Cmdliner
open Tce

let out_lock = Mutex.create ()

let write_line line =
  Mutex.lock out_lock;
  print_string line;
  print_newline ();
  flush stdout;
  Mutex.unlock out_lock

let serve workers queue_cap cache_cap deadline_ms degrade debug_ops =
  let cfg =
    Server.default_config ~workers ~queue_capacity:queue_cap
      ~cache_capacity:cache_cap ?default_deadline_ms:deadline_ms ~degrade
      ~debug_ops ()
  in
  let server = Server.create cfg in
  let drained = ref false in
  (try
     let rec loop () =
       match In_channel.input_line stdin with
       | None -> ()
       | Some line ->
         let trimmed = String.trim line in
         (* Stop reading once the engine has admitted a drain: it
            answers one only after the queue has emptied. *)
         if trimmed <> "" then
           drained := Server.submit_line server trimmed ~reply:write_line;
         if !drained then () else loop ()
     in
     loop ()
   with Sys_error _ -> ());
  if not !drained then Server.drain server;
  Server.close server;
  0

(* An integer with a lower bound. A value below it is a usage error
   naming the flag (exit 124), rejected before the engine's own
   range checks can raise. *)
let int_at_least lo =
  let parse s =
    match Arg.conv_parser Arg.int s with
    | Ok n when n >= lo -> Ok n
    | Ok n -> Error (`Msg (Printf.sprintf "must be at least %d, got %d" lo n))
    | Error _ as e -> e
  in
  Arg.conv ~docv:"N" (parse, Format.pp_print_int)

let workers_arg =
  Arg.(value & opt (int_at_least 1) 2 & info [ "workers" ] ~docv:"N"
         ~doc:"Worker domains consuming the request queue.")

let queue_cap_arg =
  Arg.(value & opt (int_at_least 1) 32 & info [ "queue-cap" ] ~docv:"N"
         ~doc:"Admission bound: requests beyond this queue depth are \
               rejected with a typed $(b,overloaded) response and a \
               Retry-After hint.")

let cache_cap_arg =
  Arg.(value & opt (int_at_least 0) 128 & info [ "cache-cap" ] ~docv:"N"
         ~doc:"Plan cache capacity (LRU entries), which also bounds the \
               memo of derived requests; 0 disables both.")

let deadline_arg =
  Arg.(value & opt (some float) None & info [ "deadline-ms" ] ~docv:"MS"
         ~doc:"Default per-request deadline in milliseconds, applied when \
               a request carries none. Off by default.")

let degrade_arg =
  let mode_conv =
    Arg.enum [ ("auto", `Auto); ("always", `Always); ("never", `Never) ]
  in
  Arg.(value & opt mode_conv `Auto & info [ "degrade" ] ~docv:"MODE"
         ~doc:"Degradation ladder under deadline pressure: $(b,auto) \
               (exact search on a fraction of the budget, then beam \
               fallback, then the millisecond greedy seed plan — both \
               labelled approximate), $(b,always) (beam on every \
               request, greedy seed if the beam blows the budget), \
               $(b,never) (exact only).")

let debug_ops_arg =
  Arg.(value & flag & info [ "debug-ops" ]
         ~doc:"Honour the $(b,debug_sleep) and $(b,debug_crash) test ops \
               (load generators and the CI smoke test use them to force \
               overload and crash-isolation paths deterministically).")

let () =
  let info =
    Cmd.info "tce_serve" ~version:"1.0.0"
      ~doc:"Fault-hardened planning daemon: JSON-lines requests on stdin, \
            responses on stdout."
  in
  exit
    (Cmd.eval'
       (Cmd.v info
          Term.(
            const serve $ workers_arg $ queue_cap_arg $ cache_cap_arg
            $ deadline_arg $ degrade_arg $ debug_ops_arg)))
