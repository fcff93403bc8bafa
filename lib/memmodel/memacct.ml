open! Import

type t = { resident_words : int; buffer_words : int }

let empty = { resident_words = 0; buffer_words = 0 }

let add_resident t words =
  if words < 0 then invalid_arg "Memacct.add_resident: negative size";
  { t with resident_words = t.resident_words + words }

let add_message t words =
  if words < 0 then invalid_arg "Memacct.add_message: negative size";
  { t with buffer_words = max t.buffer_words words }

let merge a b =
  {
    resident_words = a.resident_words + b.resident_words;
    buffer_words = max a.buffer_words b.buffer_words;
  }

(* [procs_per_node · 8] is exact, so [bytes_per_word · words] rounds
   once, to the same float as [procs_per_node · (8 · words)]. *)
let bytes_per_word params =
  float_of_int params.Params.procs_per_node *. Units.bytes_of_words 1

let node_bytes params t =
  bytes_per_word params *. float_of_int (t.resident_words + t.buffer_words)

let fits params t = node_bytes params t <= params.Params.mem_per_node_bytes

let pp ppf t =
  Format.fprintf ppf "resident %a + buffer %a per proc" Units.pp_bytes_si
    (Units.bytes_of_words t.resident_words)
    Units.pp_bytes_si
    (Units.bytes_of_words t.buffer_words)
