(** Static structural lint of bilinear CDAGs (pass 1 of the analyzer).

    Verifies the invariants that Definition 2.1 and Fact 2.1 of the
    paper promise of every H^{n x n}: acyclicity, per-role in-degree
    bounds derived from the base algorithm's U/V/W sparsity (a
    2x2-base encoder row touches at most the 4 base entries, a Mult
    has exactly its two encoded operands, a decoder at most t
    products), role-consistent edges (inputs feed encoders, encoders
    feed encoders/mults, mults feed decoders, decoders feed decoders),
    and reachability hygiene (no vertex unreachable from the inputs,
    no vertex that feeds no output). *)

val lint : Fmm_cdag.Cdag.t -> Diagnostic.report
(** Lint a CDAG as built by {!Fmm_cdag.Cdag.build}, including hybrid
    (cutoff > 1) CDAGs: the decoder in-degree bound is widened to
    [max (W sparsity) cutoff] — the Fact 2.1 instantiation for a
    classical leaf whose decoder sums the cutoff elementary products
    of one output entry. *)

val lint_graph :
  ?dec_leaf:int ->
  graph:Fmm_graph.Digraph.t ->
  role:(int -> Fmm_cdag.Cdag.role) ->
  inputs:int array ->
  outputs:int array ->
  base:Fmm_bilinear.Algorithm.t ->
  unit ->
  Diagnostic.report
(** Same checks over an explicit (graph, role, inputs, outputs) view —
    the entry point for linting {e corrupted} copies of a CDAG's graph
    (the append-only {!Fmm_graph.Digraph} cannot delete edges, so
    corruption tests rebuild the graph minus an edge). [dec_leaf]
    (default 1) is the hybrid cutoff; it widens the decoder in-degree
    bound to [max (W sparsity) dec_leaf]. *)

val lint_implicit : ?samples:int -> Fmm_cdag.Implicit.t -> Diagnostic.report
(** Lint an implicit CDAG: global closed-form census identities plus,
    on an id-stride sample of [samples] vertices (default 4096) and the
    layout boundary ids, the per-vertex rules {!lint_graph} applies
    (decoder bound widened to the CDAG's cutoff, so a hybrid CDAG lints
    alike on both paths) and reciprocity / ascending-id checks of the
    adjacency arithmetic. Runs at any n the arithmetic supports. *)

val lint_workload : Fmm_machine.Workload.t -> Diagnostic.report
(** Role-free DAG hygiene for arbitrary workloads and pebbling
    instances: acyclic, inputs are sources, non-inputs have operands,
    every vertex reachable from the inputs, every vertex feeds some
    output, outputs exist. *)
