(** Node-aware network topology (DESIGN.md §17).

    The paper's machine model is a flat torus with one α–β link
    characterization, but the target cluster packs several processors
    per node — messages between ranks on the same node move over a much
    faster link than messages crossing the interconnect. A topology
    couples the machine {!Params} with an optional second (intra-node)
    step-time table and the row-major rank → node mapping, and
    classifies each grid axis by the link class its rotation hops
    traverse. The default {!uniform} topology has no intra table and
    reproduces the flat model bit-for-bit. *)

open! Import

type link = Intra | Inter  (** link class of a nearest-neighbour hop *)

type t

val uniform : Params.t -> t
(** The paper's flat model: every hop costs [Params.step_time],
    regardless of node placement. *)

val node_aware : Params.t -> intra_latency:float -> intra_bandwidth:float -> t
(** A two-class model: inter-node hops cost [Params.step_time]; hops
    between ranks on the same node (of [params.procs_per_node]
    consecutive ranks) follow the α–β law
    [intra_latency + bytes/intra_bandwidth]. *)

val node_aware_table : Params.t -> intra_step_time:Interp.t -> t
(** Like {!node_aware} with an arbitrary intra-node step-time table. *)

val params : t -> Params.t
val procs_per_node : t -> int

val node_of : t -> rank:int -> int
(** The node hosting [rank]: ranks are packed [procs_per_node] to a
    node in row-major rank order. *)

val step_time : t -> link:link -> bytes:float -> float
(** One shift step of a block of the given size over a link of the
    given class. On a {!uniform} topology both classes equal
    [Params.step_time]. *)

val axis_link : t -> Grid.t -> axis:int -> link
(** Link class of grid [axis] (1 or 2): [Intra] iff every
    nearest-neighbour hop of every ring along the axis (wrap-around
    included) stays on one node. Constant time: with [ppn] procs per
    node, [Intra] iff [rows · cols <= ppn], or [axis = 1] and
    [rows = 1], or [axis = 2] and [ppn mod cols = 0]. Raises
    [Invalid_argument] on another axis or [ppn < 1]. *)

val link_name : link -> string

val fingerprint : t -> string
(** Deterministic content string ("topo:uniform", or the ppn and the
    full intra table at full float precision); a component of the
    planning daemon's cache key. *)

val pp : Format.formatter -> t -> unit
