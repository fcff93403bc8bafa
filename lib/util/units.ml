let word_bytes = 8
let paper_mb = 1.024e6
let bytes_of_words w = float_of_int w *. float_of_int word_bytes
let paper_mb_of_words w = bytes_of_words w /. paper_mb

let pp_paper_size ppf words =
  let mb = paper_mb_of_words words in
  if mb >= 1000.0 then Format.fprintf ppf "%.3fGB" (mb /. 1000.0)
  else Format.fprintf ppf "%.1fMB" mb

let pp_bytes_si ppf b =
  let abs = Float.abs b in
  if abs >= 1e9 then Format.fprintf ppf "%.2f GB" (b /. 1e9)
  else if abs >= 1e6 then Format.fprintf ppf "%.2f MB" (b /. 1e6)
  else if abs >= 1e3 then Format.fprintf ppf "%.2f kB" (b /. 1e3)
  else Format.fprintf ppf "%.0f B" b
