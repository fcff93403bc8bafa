(** The paper's baselines as settings of the one search.

    - [`All]: the integrated search — full fusion enumeration,
      communication objective (the paper's contribution).
    - [`None]: communication-minimal distribution with no loop fusion
      (the paper's earlier work, ref. [16]). Fails outright when the
      unfused intermediates exceed the memory limit — the situation that
      motivates this paper.
    - [`Memmin]: minimize memory first and communication only second
      (the discipline of refs. [14, 15], transplanted into the parallel
      legality space — the verbatim sequential fusion is usually not
      even Cannon-executable). Always fits if anything does, but
      over-fuses and pays for it in communication.

    The integrated search dominates both; the benchmark sweeps quantify
    by how much. A front end sets the pair on its request: the fusion
    mode on the shape's config ({!Search.machine}'s [?fusion_mode]) and
    the objective on {!Search.request}. *)

open! Import

type mode = [ `All | `None | `Memmin ]

val of_mode : mode -> Search.fusion_mode * Search.objective
