(** The recursion-indexed (implicit) CDAG of a recursive bilinear
    algorithm: the same graph H^{n x n} that [Cdag.build] materializes,
    represented by arithmetic alone. A vertex is a plain [int] — its id
    in the explicit builder's DFS allocation order — and decoding that
    int recovers (role, digit path through the recursion levels,
    base-case position), from which predecessors and successors are
    computed out of the base algorithm's U/V/W coefficient structure.
    Nothing adjacency-shaped is ever stored; only caller-requested id
    ranges are expanded into flat CSR arrays.

    Equivalence contract: for every [alg] and [n], vertex ids, roles,
    edges (with coefficients and per-vertex operand order), recursion
    nodes and input/output arrays agree bit-exactly with
    [Cdag.build alg ~n]. The differential suite in [test_implicit]
    checks this for every registered square-base algorithm at all
    feasible sizes; the closed-form censuses make the same queries
    answerable at n = 256..1024 where the explicit graph (~40M..2G
    vertices) cannot be built.

    Id layout (the explicit builder's allocation order):
    - ids [0, n^2): [Input_a], row-major;
    - ids [n^2, 2 n^2): [Input_b];
    - the root subtree. A node of size r > 1 with subtree base [lo]
      lays out, for tau = 0..t-1, a chunk of C(r) = 2 (r/n0)^2 + S(r/n0)
      ids — encA block (row-major), encB block, child subtree — and
      then its r^2 decoder vertices, allocated in (p, q, i, j) loop
      order (NOT out-array row-major order; the out-array position
      (p h + i) r + (q h + j) maps to allocation index
      ((p k0 + q) h + i) h + j). A node of size 1 is a single Mult.

    Ascending id order is a topological order of the graph (every edge
    goes from a lower to a higher id), which the streaming analyses in
    [Fmm_machine.Stream_exec] and [Fmm_analysis.Dataflow] exploit as a
    canonical schedule.

    A [t] is immutable and its queries keep no state: one value may be
    shared by several domains, and queries may nest (a callback may
    query again). [role] on a non-input, [is_sub_output], [iter_preds],
    [iter_in_neighbors], [iter_succs] and [iter_out_neighbors] allocate
    nothing themselves. *)

type t

val create : ?cutoff:int -> Fmm_bilinear.Algorithm.t -> n:int -> t
(** Same preconditions as [Cdag.build]: square base, [n] a power of the
    base dimension, [cutoff] a power of the base dimension in [1, n].
    O(log n) time and space. Raises [Invalid_argument] when the vertex
    or edge count would overflow an int (Strassen beyond n = 2^20), so
    every id of an accepted CDAG is queryable. With [cutoff = c > 1]
    the fast recursion stops at size-c nodes and each leaf is the
    classical triple-loop sub-CDAG of [Cdag.build ~cutoff]: per output
    (i, j) in row-major order, c Mult vertices (l = 0..c-1, operands
    a_{il}, b_{lj}) then one Dec summing them with coefficient 1 —
    c^2 (c + 1) ids per leaf in that interleaved allocation order. *)

val of_cdag : Cdag.t -> t
(** The implicit view of an explicitly built CDAG (same base, same n,
    same hybrid cutoff). *)

val cutoff : t -> int
(** The hybrid leaf size (1 = uniform fast CDAG). *)

val size : t -> int
val base_algorithm : t -> Fmm_bilinear.Algorithm.t

val levels : t -> int
(** L with n = n0^L. *)

val n_vertices : t -> int
val n_edges : t -> int

val n_inputs : t -> int
(** 2 n^2; input ids are exactly [0, n_inputs). *)

val a_inputs : t -> int array
val b_inputs : t -> int array

val outputs : t -> int array
(** In out-array (row-major result) order, like [Cdag.outputs]. *)

val is_input : t -> int -> bool
val is_output : t -> int -> bool

val role : t -> int -> Cdag.role

val in_degree : t -> int -> int
val out_degree : t -> int -> int

val iter_preds : t -> int -> f:(int -> int option -> unit) -> unit
(** Predecessors with edge coefficients ([None] on Mult operand edges),
    in the explicit builder's insertion order (ascending base-matrix
    column / ascending tau; Mult: A operand then B operand). Note
    [Digraph.in_neighbors] of the explicit graph shows the reverse. *)

val iter_in_neighbors : t -> int -> f:(int -> unit) -> unit
(** Predecessors in the reverse of {!iter_preds}' order — the order
    [Digraph.in_neighbors] lists on the explicit graph. *)

val preds : t -> int -> (int * int option) list

val iter_succs : t -> int -> f:(int -> unit) -> unit
(** Successors, in the explicit builder's edge-insertion order
    (ascending consumer id). *)

val iter_out_neighbors : t -> int -> f:(int -> unit) -> unit
(** Successors in descending id order — the order
    [Digraph.out_neighbors] lists on the explicit graph. *)

val succs : t -> int -> int list

val edge_coeff : t -> int -> int -> int option
(** Coefficient of edge (src, dst); [None] for Mult operand edges and
    for non-edges — the same observable behaviour as
    [Cdag.edge_coeff]. *)

(* --- recursion nodes (SUB_H^{r x r} selection) --- *)

type node_info = {
  depth : int;
  r : int;
  lo : int;  (** subtree ids occupy [lo, hi], as in [Cdag.node] *)
  hi : int;
  a_base : int;  (** operand arrays are contiguous: a_in.(i) = a_base + i *)
  b_base : int;
}

val depth_of_r : t -> r:int -> int option
(** The recursion depth whose nodes have size [r], if any. *)

val node_count_at_depth : t -> depth:int -> int
(** t^depth. *)

val iter_nodes_at_depth : t -> depth:int -> f:(node_info -> unit) -> unit
(** Nodes at [depth] in ascending [lo] (digit-path lexicographic)
    order. *)

val node_of_path : t -> int array -> node_info
(** The node reached by the given tau digits from the root ([ [||] ] is
    the root). Raises [Invalid_argument] on a bad path. *)

val out_entry : t -> node_info -> int -> int
(** [out_entry t nd pos] is the id of entry [pos] (row-major) of the
    node's out array; [a_base + pos] / [b_base + pos] are the operand
    entries. *)

val sub_node_count : t -> r:int -> int
val sub_output_count : t -> r:int -> int
(** |V_out(SUB_H^{r x r})| = t^d r^2 (Lemma 2.2). 0 for invalid r. *)

val sub_input_count : t -> r:int -> int
(** |V_inp(SUB_H^{r x r})| = 2 t^d r^2. 0 for invalid r. *)

val sub_outputs : t -> r:int -> int list
(** Enumerated (ascending node lo, then out-array position); equals
    [Cdag.sub_outputs] as a set. Only sensible when the count is
    small. *)

val sub_inputs : t -> r:int -> int list

val is_sub_output : t -> r:int -> int -> bool
(** O(log n) membership test in V_out(SUB_H^{r x r}) — the predicate
    the streaming segment analysis runs on. *)

(* --- censuses --- *)

val stats : t -> (string * int) list
(** Same key set and values as [Cdag.stats], from closed-form
    recurrences (O(log n)). *)

(* --- CSR expansion of requested levels --- *)

type csr = {
  lo : int;  (** rows cover ids [lo, hi) *)
  hi : int;
  row_off : int array;  (** length hi - lo + 1 *)
  cols : int array;  (** predecessor ids, builder operand order *)
  weights : int array;  (** edge coefficients; 0 on Mult operand edges *)
}

val csr_preds : t -> lo:int -> hi:int -> csr
(** Flat-array predecessor adjacency for ids in [lo, hi). A recursion
    node's subtree is a contiguous id range, so expanding a level means
    expanding the ranges from [iter_nodes_at_depth]. *)

(* --- bridges --- *)

val to_digraph : t -> Fmm_graph.Digraph.t
(** Full expansion; edge insertion order matches the explicit builder
    exactly (so both adjacency list directions agree). *)

val to_explicit : t -> Cdag.t
(** Reconstruct the explicit [Cdag.t] from implicit arithmetic alone
    (not via [Cdag.build]) — the differential tests compare the two. *)
