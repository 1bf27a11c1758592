(** The segment analysis of Lemma 3.6 / Theorem 1.1 applied to concrete
    execution traces: cut a schedule into segments of [quota] first-time
    computations of V_out(SUB_H^{r x r}) and compare each segment's I/O
    against the bound r^2/2 - M. This is how the abstract counting
    argument becomes a measurable property of real schedules —
    recomputation-proof, because only first computations count. *)

type segment = {
  index : int;
  output_computations : int;
  io : int;
  loads : int;
  stores : int;
}

type analysis = {
  r : int;
  quota : int;
  segments : segment list;
  bound : int;  (** ceil(r^2/2) - M; may be nonpositive (vacuous) *)
  cache_size : int;
}

val analyze :
  Fmm_cdag.Cdag.t -> cache_size:int -> r:int -> ?quota:int -> Trace.t -> analysis
(** [quota] defaults to [4 * cache_size], the theorem's choice. *)

val analyze_events :
  n_vertices:int ->
  is_sub_output:(int -> bool) ->
  cache_size:int ->
  r:int ->
  ?quota:int ->
  ((int -> unit) -> unit) ->
  analysis
(** The shared fold under [analyze]: segment a stream of packed event
    codes driven by the given iterator, with V_out membership as a
    predicate. *)

val analyze_implicit :
  Fmm_cdag.Implicit.t ->
  cache_size:int ->
  r:int ->
  ?quota:int ->
  unit ->
  analysis * Trace.counters
(** Segment the canonical streaming LRU execution
    ({!Stream_exec.run_lru}) of an implicit CDAG without materializing
    the trace; also returns the execution's I/O counters. Agrees with
    [analyze] over [Schedulers.run_lru] on the ascending order. *)

val full_segments : analysis -> segment list
(** Segments that reached the quota (the theorem's counting excludes
    the final partial one). *)

val min_io_full_segments : analysis -> int option

val lemma_3_6_holds : analysis -> bool
