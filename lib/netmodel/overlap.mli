(** Communication/computation overlap in the cost model.

    The paper's per-step cost is strictly additive: a Cannon step pays its
    rotation time plus its multiply time, because the reference
    implementation serializes shift-then-multiply, as [Multicore] does.
    An engine that posts the next step's block sends before the multiply
    would hide part of the transit behind the arithmetic; node-aware
    distributed contraction work (Irmler et al.) exploits exactly this
    lever. This module is the model-side knob: a per-step cost law

    {v cost = max(comm, compute) + factor · min(comm, compute) v}

    where [factor ∈ [0, 1]] is the {e exposed} fraction of the
    overlappable time. [factor = 1] reproduces the paper's serialized
    [comm + compute] — the default everywhere, keeping the Tables 1–2
    reproduction intact — and [factor = 0] is perfect overlap,
    [max(comm, compute)], the α–β lower bound of a schedule that never
    waits for a message it could have hidden. *)

type t

val none : t
(** [factor = 1.0]: no overlap, the paper-faithful additive law. *)

val perfect : t
(** [factor = 0.0]: every overlappable second is hidden. *)

val make : factor:float -> (t, string) result
(** [factor] must lie in [[0, 1]]. *)

val make_exn : factor:float -> t
(** Like {!make}; raises [Tce_error.Error] on a factor outside [[0, 1]]. *)

val factor : t -> float

val is_none : t -> bool
(** True for the serialized law (within floating-point equality of 1.0). *)

val step_seconds : t -> comm:float -> compute:float -> float
(** The per-step cost law above. Raises [Tce_error.Error] on negative
    inputs. *)

val saved_seconds : t -> comm:float -> compute:float -> float
(** What overlap buys on this step: the additive cost minus
    {!step_seconds} (equivalently [(1 - factor) · min(comm, compute)]). *)

val pp : Format.formatter -> t -> unit
