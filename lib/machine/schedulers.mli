(** Schedulers: turn a compute order into a legal machine trace, under
    the two opposite policies for values that fall out of cache —
    spill (write back and reload) or recompute. Every trace they
    produce replays cleanly through {!Cache_machine} (enforced by the
    test suite). *)

type result = {
  trace : Trace.t;  (** in execution order *)
  counters : Trace.counters;
}

exception Cache_too_small of string
(** Raised by every scheduler when a step cannot make room: every
    resident value is pinned as an operand of a pending compute (a
    cache of zero or negative size refuses the first step). How
    much cache is enough depends on the policy and the order, not only
    on the CDAG (at Strassen n = 16 rematerialization still fails at
    M = 8 where LRU runs at M = 5), so callers learn it by running.

    Every scheduler keeps V/8-byte residency bitsets and a slot table
    of min(cache_size, V) entries, so a cache far larger than the CDAG
    costs nothing extra. *)

val run_lru : Workload.t -> cache_size:int -> int list -> result
(** LRU replacement with write-back spilling; no vertex is ever
    computed twice. Dead residents (values past their last use —
    in practice unstored outputs) are preferred victims, evicted in
    least-recently-touched order before any live value; this makes the
    spill-free bound exact: whenever [cache_size >= MAXLIVE(order)]
    (per [Dataflow.order_liveness]) the trace contains zero spills —
    no reload and no store of a non-output, so io = compulsory
    inputs + outputs. That invariant is asserted at the end of every
    run (raises [Failure] if violated). [cache_size] must exceed the
    maximum in-degree (raises {!Cache_too_small} otherwise). *)

val stream_lru :
  Workload.t -> cache_size:int -> on_event:(int -> unit) -> Trace.counters
(** {!run_lru} on the ascending-id order of the non-input vertices (a
    topological order of every CDAG, explicit or implicit), sending
    each event's packed code ({!Trace.kind}, {!Trace.vertex}) to
    [on_event] instead of building a trace, and building
    no order list or position table: on an implicit view the run keeps
    V/8 bytes per residency set plus O(min(cache, V)) words, and
    allocates nothing per event. *)

val run_belady : Workload.t -> cache_size:int -> int list -> result
(** Offline-optimal (MIN) replacement for the given order: evict the
    resident value whose next use is farthest away (ties: a value
    evicted for free before one that must be stored, then the smaller
    id). Its I/O lower bounds every demand-paging execution of the same
    order, so belady <= lru pointwise — and it still cannot beat the
    Theorem 1.1 bound. Next uses come from successor scans against the
    order's position table, and victims from a heap over the slots, so
    beyond the trace, the position table and the residency bitsets it
    keeps O(M) words. *)

val run_rematerialize :
  ?max_flops:int -> Workload.t -> cache_size:int -> int list -> result
(** Recompute instead of spilling: only CDAG outputs are ever stored;
    a missing operand is recursively recomputed from whatever is
    available (ultimately re-loaded inputs). Trades arithmetic for I/O
    as aggressively as possible — the strategy whose futility for fast
    MM is the paper's headline. Needs a cache a few times the DAG
    depth (operand pinning along the recursion path); raises
    {!Cache_too_small} when the cache is too small and [Failure] when
    the run would exceed [max_flops]. The cap is charged before each compute, deep inside
    the recursive descent, so a failed run never performs more than
    [max_flops] computations. *)

val run_hybrid :
  ?max_flops:int ->
  Workload.t ->
  cache_size:int ->
  recompute:(int -> bool) ->
  int list ->
  result
(** Per-value mix of the two policies, with the same dead-first LRU
    victim selection as {!run_lru}: evicting a live value [v] spills it
    (write back + reload on demand) when [recompute v] is false, and
    drops it (rebuild recursively when next needed) when true. Inputs
    and outputs ignore
    the flag — inputs are always in slow memory, outputs always spill.
    [recompute = fun _ -> false] reproduces {!run_lru}'s trace
    exactly ({!run_lru} is this scheduler without recomputation, plus
    the spill-free check and no flop cap); this is the schedule space
    {!Fmm_opt.Optimizer} searches.
    Raises like the fixed policies; same [max_flops]
    discipline as {!run_rematerialize}. *)
