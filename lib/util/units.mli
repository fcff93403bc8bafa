(** Size and time formatting, including the paper's idiosyncratic units.

    The IPDPS'03 tables report array sizes in a "MB" that back-derivation
    shows to be 1.024e6 bytes (so that e.g. array A on 64 processors prints
    as 57.6MB); we reproduce that unit so our tables can be compared
    digit-for-digit against the paper's. *)

val word_bytes : int
(** Bytes per array element (8: double precision). *)

val paper_mb : float
(** The paper's megabyte: 1.024e6 bytes. *)

val bytes_of_words : int -> float
(** [bytes_of_words w] is [w * word_bytes] as a float (sizes can exceed
    [max_int/8] conceptually on 32-bit platforms; float keeps us safe). *)

val paper_mb_of_words : int -> float
(** Words to the paper's MB unit. *)

val pp_paper_size : Format.formatter -> int -> unit
(** Render a word count the way the paper's tables do: "57.6MB",
    "1.728GB", choosing MB below 1000 paper-MB and GB above. *)

val pp_bytes_si : Format.formatter -> float -> unit
(** Conventional SI rendering (kB / MB / GB with 1e3 steps) used in logs. *)
