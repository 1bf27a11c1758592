(** The generic dataflow / abstract-interpretation substrate of the
    static analyzer (DESIGN.md §12). Three layers:

    {ol
    {- {!Bitset}: byte-packed bitsets (the machine layer's residency
       sets too) — the abstract domain every analysis here stores
       vertex sets in.}
    {- {!Fixpoint}: a worklist fixpoint solver over
       {!Fmm_graph.Digraph.t} with a deterministic iteration order
       (flat int-array ring queue, ascending seed order), direction
       forward (facts flow along edges) or backward (against them).
       {!reachable}/{!needed} are its boolean instances and what
       {!Cdag_lint} runs its hygiene sweep on.}
    {- Schedule analyses: {!order_liveness} (interval liveness of a
       compute order — MAXLIVE, the spill-free minimum cache),
       {!io_lower_bound} (a policy-independent static I/O lower bound
       for every no-recomputation schedule of a given order), and
       {!trace_profile} (peak occupancy and live count of a concrete
       trace — its peak is the minimum cache size for which the trace
       is legal).}}

    Everything is deterministic: no hashing of boxed values, no
    [Hashtbl] iteration order, identical output at any [--jobs]. *)

(** Fixed-capacity bitsets over vertex ids [0..n-1] (shared with the
    machine layer). *)
module Bitset = Fmm_util.Bitset

(** Deterministic Zobrist key tables: one key per (vertex, property)
    pair, drawn from {!Fmm_util.Prng} so every process derives the
    identical table. Used by {!Trace_check}'s incremental oracle to
    hash abstract machine states in O(1) per transition. *)
module Zobrist : sig
  type t

  val create : seed:int -> n:int -> props:int -> t
  val key : t -> int -> prop:int -> int
  (** A 62-bit nonnegative key for [(vertex, prop)]; [prop] in
      [0..props-1]. *)
end

(** The fixpoint solver, parameterized by the abstract domain. *)
module type DOMAIN = sig
  type fact

  val equal : fact -> fact -> bool
  val join : fact -> fact -> fact
end

module Fixpoint (Dom : DOMAIN) : sig
  val solve :
    Fmm_graph.Digraph.t ->
    direction:[ `Forward | `Backward ] ->
    init:(int -> Dom.fact) ->
    transfer:(int -> Dom.fact -> Dom.fact) ->
    Dom.fact array
  (** [solve g ~direction ~init ~transfer] computes the least fixpoint
      of [out(v) = transfer v (join (init v) (join over dependency
      out-facts))], where the dependencies are in-neighbors
      ([`Forward]) or out-neighbors ([`Backward]). The worklist is a
      flat int ring seeded with every vertex ascending ([`Forward]) or
      descending ([`Backward]); re-queueing is deduplicated, so the
      iteration order — and on non-monotone domains the result — is a
      deterministic function of the graph alone. *)
end

val reachable : Fmm_graph.Digraph.t -> int list -> Bitset.t
(** Vertices reachable from the seed set following edges forward — the
    boolean forward instance of {!Fixpoint}. *)

val needed : Fmm_graph.Digraph.t -> int list -> Bitset.t
(** Vertices from which the seed set is reachable (backward
    reachability): everything an evaluation of the seeds needs. *)

(** Interval liveness of a compute order (inputs live from first use,
    computed values from their definition, both until last use),
    computed by one sweep over a {!Fmm_machine.Workload} view and an
    order, whichever backs the view. *)

(** The sweep's summary, which needs no per-position arrays. *)
module Streamed : sig
  type t = {
    length : int;  (** number of scheduled (non-input) vertices *)
    maxlive : int;
    inputs_used : int;
    outputs_stored : int;
  }
end

type liveness = {
  first_use : int array;  (** earliest order position reading v; -1 if none *)
  live_at : int array;
      (** [live_at.(i)]: values that must be simultaneously resident
          at the instant [order.(i)] is computed, in any schedule of
          this order that never spills and never recomputes *)
  maxlive : int;  (** [max_i live_at.(i)] — the spill-free minimum cache *)
  inputs_used : int;  (** inputs with at least one scheduled consumer *)
  outputs_stored : int;  (** output vertices that are not inputs *)
}

val order_liveness : Fmm_machine.Workload.t -> int array -> liveness
(** The order must be a permutation of the non-input vertices
    (schedulers' contract); raises [Invalid_argument] on out-of-range
    ids, inputs or duplicates. MAXLIVE semantics: with [cache_size >=
    maxlive] the order admits a schedule with exactly one load per used
    input, one store per non-input output and no other I/O; below
    [maxlive] every no-recomputation schedule of the order must
    spill. *)

val io_lower_bound : liveness -> cache_size:int -> int
(** [inputs_used + outputs_stored + (maxlive - cache_size)+]: a lower
    bound on loads+stores for {e every} legal no-recomputation trace
    whose first-compute sequence is this order. Each used input costs
    one load and each non-input output one store; at the position of
    peak liveness, each of the [live - M] live values that cannot be
    resident must either be an input loaded a second time or a computed
    value stored and reloaded — at least one extra I/O each.
    Policy-independent: LRU, Belady and every hybrid without
    recomputation are all bound by it (recomputation escapes it, which
    is the paper's point). *)

val implicit_order_liveness : Fmm_cdag.Implicit.t -> Streamed.t
(** The same sweep over the implicit view and the canonical
    ascending-id order, in O(maxlive) state: runs at n = 256+ where the
    explicit graph does not fit. *)

val streamed_io_lower_bound : Streamed.t -> cache_size:int -> int
(** The {!io_lower_bound} formula on a streamed summary. *)

(** Cache profile of a concrete trace: its peaks over every event. *)
type profile = {
  peak_occupancy : int;  (** most values resident after any event *)
  peak_live : int;
      (** most values resident after any event whose next access
          before leaving cache is a read (they serve a future use) *)
  min_cache : int;
      (** smallest cache size for which this trace is legal — equal to
          [peak_occupancy]: occupancy is cache-size-independent, so the
          trace replays iff M >= its peak *)
}

val trace_profile : Fmm_machine.Workload.t -> Fmm_machine.Trace.t -> profile
(** Tolerant on illegal traces (ignores loads of resident values and
    evictions of absent ones — same recovery discipline as
    {!Trace_check}); on legal traces [peak_occupancy] equals
    {!Trace_check.check}'s [peak_occupancy] exactly (enforced by the
    test suite on every registry trace). *)
