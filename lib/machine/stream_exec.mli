(** Streaming LRU execution of an implicit CDAG on the canonical
    ascending-id topological order: {!Schedulers.stream_lru} on the
    implicit {!Workload} view. Events are pushed to a callback instead
    of materialized and adjacency is computed arithmetically, in
    V/8 bytes per residency set — what lifts trace-level analysis (I/O
    counters, segment I/O, Lemma 3.6 checks) from n <= 16 to n = 256
    and beyond. *)

val run_lru :
  Fmm_cdag.Implicit.t ->
  cache_size:int ->
  ?on_event:(int -> unit) ->
  unit ->
  Trace.counters
(** Execute all non-input vertices in ascending id order under
    [Schedulers.run_lru]'s policy — so at [cache_size >= MAXLIVE] of
    the canonical order the run is spill-free (asserted, raising
    [Failure] if violated). [cache_size] must exceed the maximum
    in-degree (raises {!Schedulers.Cache_too_small} otherwise, zero and
    negative sizes included). [on_event] sees the packed codes ({!Trace.kind},
    {!Trace.vertex}) of the exact event sequence [Schedulers.run_lru]
    produces for the same order on the explicit graph. *)

val run_lru_collect : Fmm_cdag.Implicit.t -> cache_size:int -> Schedulers.result
(** Materialize the full trace (small n only — the differential
    tests' entry point). *)
