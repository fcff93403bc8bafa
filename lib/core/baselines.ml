open! Import

type mode = [ `All | `None | `Memmin ]

let of_mode = function
  | `All -> (Search.Enumerate, Search.Comm)
  | `None -> (Search.No_fusion, Search.Comm)
  | `Memmin -> (Search.Enumerate, Search.Mem_first)
