(** COSMA-style communication-optimal schedule generation (DESIGN.md
    §16). Two routes from a CDAG to a [Fmm_machine.Par_exec]-compatible
    owner-computes assignment:

    {ol
    {- {!split_order}: split a proven {e sequential} schedule — any
       topological compute order a scheduler or the optimizer emits —
       into P contiguous parts. The objective is the exact crossing
       census the word-counting executor will charge (one word per
       (value, consuming processor) pair with consumer <> owner), not a
       proxy: cuts are seeded at liveness minima of
       [Fmm_analysis.Dataflow.order_liveness] and refined by a
       deterministic boundary-shift local search that maintains the
       census incrementally.}
    {- {!grid_search}: an exact-integer search over (p1, p2, p3)
       processor-grid decompositions of the classical iteration cube,
       ranked by {!Fmm_machine.Par_model.grid_3d} and decided by the
       measured {!Fmm_machine.Par_exec.run} census.}}

    Everything here is deterministic — identical output at any
    [--jobs] — and every emitted assignment replays cleanly through
    {!Fmm_analysis.Par_check.check_log} (see {!validate}). *)

(** A sequential order split into [procs] contiguous parts. *)
type split = {
  procs : int;
  order : int array;  (** the non-input compute order that was split *)
  cuts : int array;
      (** length [procs + 1], [cuts.(0) = 0],
          [cuts.(procs) = Array.length order]; part k owns order
          positions [cuts.(k), cuts.(k+1)) *)
  assignment : int array;
      (** per-vertex owner (inputs assigned to their first consumer's
          part), directly consumable by [Par_exec.run] *)
  crossing : int;
      (** exact crossing words of [assignment]: agrees with
          [(Par_exec.run w ~procs ~assignment).total_words] *)
}

val split_order :
  ?rounds:int -> Fmm_machine.Workload.t -> procs:int -> int array -> split
(** Split [order] (a topological permutation of the non-input vertices,
    the schedulers' contract — validated by the liveness pass) into
    [procs] contiguous parts minimizing crossing words. Seeds each cut
    at the minimum-liveness position within a window around the
    balanced position (ties to the smallest position), then runs up to
    [rounds] (default 4) deterministic sweeps of single-vertex boundary
    shifts, accepting strict improvements of the exact census. Raises
    [Invalid_argument] if [procs < 1] or the order is malformed. *)

val split_implicit : Fmm_cdag.Implicit.t -> procs:int -> split
(** The streamed variant for implicit CDAGs: splits the canonical
    ascending-id order at equal-size seed cuts (no liveness arrays, no
    local search) and counts crossing words exactly in one
    [iter_preds] sweep with a per-value consuming-part bitmask — O(V)
    words of state, never the edge list. Requires [procs <= 62] (the
    bitmask is one OCaml int). It runs a full major collection first,
    so back-to-back calls hold one result's arrays at a time. *)

val of_trace : Fmm_machine.Workload.t -> Fmm_machine.Trace.t -> int array
(** The first-compute order of a trace — the bridge from the
    sequential machine's output (LRU / Belady / rematerializing /
    optimizer-found) to {!split_order}'s input. Recomputations are
    ignored: only the first [Compute] of each vertex is kept. *)

val exec_log :
  Fmm_machine.Workload.t ->
  procs:int ->
  assignment:int array ->
  Fmm_analysis.Par_check.ev list
(** The event log of the owner-computes execution of [assignment]: in
    global topological order, each value is transferred from its owner
    to each consuming processor once (first use), then the consumer
    computes. Its transfer count equals [Par_exec.run]'s
    [total_words]. *)

val validate :
  Fmm_machine.Workload.t ->
  procs:int ->
  assignment:int array ->
  Fmm_analysis.Par_check.replay
(** [check_log] on {!exec_log}: a generated assignment is valid iff
    the replay has zero errors and zero lost outputs. *)

val memind_bound : ?omega0:float -> Fmm_cdag.Cdag.t -> procs:int -> float
(** The Theorem 4.1 memory-independent per-processor bound
    n^2 / P^{2/omega0}, with [omega0] defaulting to the CDAG's own base
    algorithm exponent ([Fmm_bilinear.Algorithm.omega0]) — the
    denominator every generated schedule is gated against. *)

(* --- (p1, p2, p3) processor grids over the classical iteration cube --- *)

val grid_candidates : p:int -> (int * int * int) list
(** All ordered factor triples with p1 * p2 * p3 = p exactly, in
    ascending lexicographic order. *)

val grid_assignment :
  Fmm_cdag.Cdag.t -> procs:int -> grid:int * int * int -> int array
(** Owner-computes assignment of a {e pure classical} CDAG
    ([Cdag.build ~cutoff:n], the cutoff = n end of the PR 9 hybrid
    family) under the (p1, p2, p3) brick decomposition: Mult (i, j, l)
    goes to processor (block i, block j, block l); each output's Dec
    and the C brick live on layer 0; A and B inputs live with their
    brick's first layer/column. Degenerate grids are rejected through
    {!Fmm_machine.Par_model.grid_3d}'s diagnostic; a non-classical
    CDAG raises [Invalid_argument]. *)

val grid_search :
  Fmm_cdag.Cdag.t ->
  procs:int ->
  (int * int * int) * Fmm_machine.Par_model.cost * Fmm_machine.Par_exec.result
  * int array
(** Try every candidate grid: model cost from
    [Par_model.grid_3d], measured census from [Par_exec.run] on the
    emitted assignment. Returns the measured-best (ties to the
    lexicographically smallest grid) with its model cost, measured
    result and assignment. *)
