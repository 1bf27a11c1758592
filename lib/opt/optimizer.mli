(** Beam-search I/O-schedule optimizer over the two-level machine: the
    search space is (compute order) x (per-value spill-vs-recompute
    decisions), i.e. exactly the schedules Theorem 1.1 quantifies over.
    The three fixed policies ({!Fmm_machine.Schedulers.run_lru},
    [run_belady], [run_rematerialize]) are degenerate points of the
    space and seed the beam, so the best found schedule is never worse
    than the best fixed policy on the seed orders — what the optimizer
    adds is the interior: {!Fmm_machine.Schedulers.run_hybrid}
    schedules reached by segment-local moves.

    Every schedule accepted into the beam passes the legality oracle
    (zero violations, zero dead-load / redundant-store lints, checked
    I/O equal to the scheduler's claim); a failure raises
    {!Illegal_schedule}, it is never silently kept. The oracle runs in
    one of two modes with identical verdicts and byte-identical search
    results:
    - {!Incremental} (default): {!Fmm_analysis.Trace_check.check_delta}
      against the memoized run of the entrant's nearest beam ancestor
      (longest provenance prefix), costing O(mutated window) instead of
      O(trace) per entrant;
    - {!Full_replay} (debug / differential reference): a full
      {!Fmm_machine.Cache_machine} replay plus a full
      {!Fmm_analysis.Trace_check.check} pass.

    Determinism contract: with a fixed [seed], the report is identical
    at every [jobs] — candidate generation is sequential and seeded by
    {!Fmm_util.Prng.derive} paths, only evaluation fans out on the
    order-preserving {!Fmm_par.Pool}. *)

type policy =
  | Lru  (** spill everything (no recomputation) *)
  | Belady  (** spill + offline-optimal replacement *)
  | Remat  (** store outputs only, recompute everything else *)
  | Hybrid of bool array
      (** per-vertex recompute flag, {!Fmm_machine.Schedulers.run_hybrid} *)

val policy_name : policy -> string

type candidate = {
  order : int array;  (** topological order of the non-input vertices *)
  policy : policy;
  provenance : string;  (** ancestry: seed order/policy + applied moves *)
}

type eval = {
  candidate : candidate;
  result : Fmm_machine.Schedulers.result;
  io : int;
}

type oracle_mode =
  | Full_replay  (** debug reference: Cache_machine + full Trace_check *)
  | Incremental  (** default: Trace_check.check_delta vs nearest ancestor *)

val oracle_mode_name : oracle_mode -> string
(** ["full-replay"] | ["incremental"] *)

type report = {
  workload : string;
  cache_size : int;
  seed : int;
  beam_width : int;
  iterations : int;
  evaluated : int;  (** candidates run through a scheduler *)
  rejected : int;  (** evaluations that raised (cache too small, flop cap) *)
  accepted : int;  (** distinct schedules that entered a beam (all oracle-checked) *)
  best : eval;
  beam : eval list;  (** final beam, best first *)
  history : int list;
      (** best I/O after seeding and after each iteration (length
          [iterations + 1], non-increasing) *)
  baselines : (string * int option) list;
      (** fixed-policy I/O on the first seed order: [("lru", _);
          ("belady", _); ("remat", _)] — [None] when that policy could
          not execute (e.g. rematerialization with a too-small cache) *)
  oracle_mode : oracle_mode;
  oracle_replayed : int;
      (** trace events the oracle actually re-interpreted across all
          admissions (in [Full_replay] mode this equals
          [oracle_total]) *)
  oracle_total : int;
      (** total trace events across all admitted schedules; the
          replayed/total ratio is the incremental oracle's work saving *)
}

exception Illegal_schedule of string
(** Raised when an accepted schedule fails the legality oracle — a bug
    in a scheduler or a move, never expected in normal operation. *)

val search :
  ?jobs:int ->
  ?beam:int ->
  ?iters:int ->
  ?seed:int ->
  ?max_flops:int ->
  ?oracle_mode:oracle_mode ->
  ?cdag:Fmm_cdag.Cdag.t ->
  Fmm_machine.Workload.t ->
  cache_size:int ->
  orders:(string * int list) list ->
  report
(** [search work ~cache_size ~orders] seeds the beam with every
    (order, fixed policy) pair from the named [orders], then runs
    [iters] rounds of segment-reorder / policy-flip / reload-hoist
    moves, keeping the [beam] best evaluations each round (elitist:
    the best found never regresses). [cdag], when given, lets the
    reorder move target the worst {!Fmm_machine.Segments} segment of
    the current best trace instead of a generic hot window. Raises
    [Invalid_argument] on an invalid seed order and, when no seed
    candidate executes at all,
    {!Fmm_machine.Schedulers.Cache_too_small} if every seed ran out of
    cache and [Failure] otherwise. Defaults: [jobs 1], [beam 4],
    [iters 4], [seed 1], [max_flops] as the schedulers,
    [oracle_mode Incremental]. The search path is independent of
    [oracle_mode]: both modes admit or reject identically, so reports
    differ only in the [oracle_replayed] accounting. *)

val optimize_cdag :
  ?jobs:int ->
  ?beam:int ->
  ?iters:int ->
  ?seed:int ->
  ?max_flops:int ->
  ?oracle_mode:oracle_mode ->
  Fmm_cdag.Cdag.t ->
  cache_size:int ->
  report
(** {!search} on {!Fmm_machine.Workload.of_cdag} seeded with the
    {!Fmm_machine.Orders} trio — recursive DFS, naive topological
    (BFS-ish) and a seed-derived random topological order. *)
