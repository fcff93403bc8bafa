(* Self time of wall-clock spans.

   A span's parent is the innermost span on the same track that contains
   it; its self time is its duration minus the part of its interval that
   its direct children cover. Children may overlap each other (spans from
   several domains recorded on one track), so the covered part is the
   length of the union of their intervals, clipped to the parent. *)

type span = { name : string; tid : int; t0 : float; t1 : float }

(* Slack (µs) for containment: a child's end is computed from its own
   start and duration and may overshoot its parent's by rounding. *)
let eps = 1e-2

let of_events events =
  List.filter_map
    (fun (e : Tce.Obs.event) ->
      if e.ph = `X && e.pid = Tce.Obs.wall_pid then
        Some { name = e.name; tid = e.tid; t0 = e.ts_us; t1 = e.ts_us +. e.dur_us }
      else None)
    events

(* Length of the union of [(lo, hi)] intervals, each clipped to [lo0, hi0]. *)
let covered ~lo0 ~hi0 intervals =
  let clipped =
    List.filter_map
      (fun (lo, hi) ->
        let lo = Float.max lo lo0 and hi = Float.min hi hi0 in
        if hi > lo then Some (lo, hi) else None)
      intervals
  in
  let sorted = List.sort compare clipped in
  let total, last =
    List.fold_left
      (fun (total, cur) (lo, hi) ->
        match cur with
        | None -> (total, Some (lo, hi))
        | Some (clo, chi) ->
          if lo <= chi then (total, Some (clo, Float.max chi hi))
          else (total +. (chi -. clo), Some (lo, hi)))
      (0., None) sorted
  in
  match last with None -> total | Some (lo, hi) -> total +. (hi -. lo)

(* [(span, self_time)] for every span, in no particular order. *)
let self_times spans =
  let by_tid = Hashtbl.create 8 in
  List.iter
    (fun s ->
      Hashtbl.replace by_tid s.tid
        (s :: Option.value ~default:[] (Hashtbl.find_opt by_tid s.tid)))
    spans;
  Hashtbl.fold
    (fun _ track acc ->
      (* Start order, longer first on ties, so a parent precedes the
         children that start with it. *)
      let track =
        List.sort
          (fun a b ->
            match Float.compare a.t0 b.t0 with
            | 0 -> Float.compare b.t1 a.t1
            | c -> c)
          track
        |> Array.of_list
      in
      let n = Array.length track in
      let children = Array.make n [] in
      let stack = ref [] in
      Array.iteri
        (fun k s ->
          (* Drop spans that ended before [s] starts; of the rest, the
             innermost one that contains [s] is its parent. Stale entries
             below a still-open span are harmless: they cannot contain
             anything that starts after they end. *)
          let rec drop = function
            | p :: rest when track.(p).t1 <= s.t0 -> drop rest
            | st -> st
          in
          stack := drop !stack;
          (match
             List.find_opt
               (fun p ->
                 track.(p).t0 <= s.t0 +. eps && s.t1 <= track.(p).t1 +. eps)
               !stack
           with
          | Some p -> children.(p) <- (s.t0, s.t1) :: children.(p)
          | None -> ());
          stack := k :: !stack)
        track;
      Array.to_list
        (Array.mapi
           (fun k s ->
             (s, s.t1 -. s.t0 -. covered ~lo0:s.t0 ~hi0:s.t1 children.(k)))
           track)
      @ acc)
    by_tid []

(* Total self time (µs) and span count per name. *)
let self_by_name spans =
  let tbl = Hashtbl.create 16 in
  List.iter
    (fun (s, self) ->
      let t, c = Option.value ~default:(0., 0) (Hashtbl.find_opt tbl s.name) in
      Hashtbl.replace tbl s.name (t +. self, c + 1))
    (self_times spans);
  tbl
