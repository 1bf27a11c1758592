(** A workload is the machine model's read-only view of a computation:
    a DAG, the input vertices (initially in slow memory) and the output
    vertices (must end in slow memory). Bilinear CDAGs, FFT butterflies
    and ad-hoc test DAGs all execute through this one interface.

    The view is backed either by a materialized {!Fmm_graph.Digraph.t}
    or by an implicit CDAG ({!Fmm_cdag.Implicit.t}), whose adjacency is
    arithmetic and which is never materialized: the constructor decides
    the representation, and every query below answers identically on
    both backings of the same CDAG (test_implicit checks this). *)

type t

val make :
  ?name:string ->
  graph:Fmm_graph.Digraph.t ->
  inputs:int array ->
  outputs:int array ->
  unit ->
  t
(** Validates ids and that inputs have no predecessors. *)

val of_cdag : Fmm_cdag.Cdag.t -> t

val of_implicit : Fmm_cdag.Implicit.t -> t
(** The view of an implicit CDAG: O(log n) space, no graph, no O(V)
    state. Same vertex ids, adjacency, inputs, outputs and name as
    [of_cdag] on the equivalent explicit build. *)

val name : t -> string
val n_vertices : t -> int

val iter_preds : t -> int -> f:(int -> unit) -> unit
(** Predecessors (operands) in [Digraph.in_neighbors] order: the
    reverse of the order the edges were added in. Every scheduler
    visits operands in this order, so it fixes the traces. *)

val iter_succs : t -> int -> f:(int -> unit) -> unit
(** Successors (consumers) in [Digraph.out_neighbors] order: the
    reverse of edge-insertion order (descending id on CDAGs). *)

val in_degree : t -> int -> int
val out_degree : t -> int -> int

val is_input : t -> int -> bool
(** O(1); [false] outside [0, n_vertices). Arithmetic on implicit
    views. *)

val is_output : t -> int -> bool

val inputs : t -> int array
(** Shared on explicit views; a fresh O(n^2) array on implicit ones. *)

val outputs : t -> int array

val graph : t -> Fmm_graph.Digraph.t
(** The materialized backing, for analyses that need a whole
    [Digraph.t] (replay, trace checking, execution). Raises
    [Invalid_argument] on an implicit view. *)

val iter_ascending_order : t -> f:(int -> int -> unit) -> unit
(** [f step v] for the non-input vertices in ascending id order — the
    canonical compute order of every CDAG (each edge goes from a lower
    to a higher id), enumerated without building a list. *)

val is_valid_order : t -> int list -> bool
(** Is the list a topological enumeration of exactly the non-input
    vertices? (The contract every scheduler input must satisfy.) *)
