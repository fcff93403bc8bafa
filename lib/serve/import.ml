(* Aliases for lower-layer libraries; opened by every module in this
   library that speaks the wire format. *)
module Json = Tce_util.Json
