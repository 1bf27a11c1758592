(** Sinks for experiment outcomes: ASCII tables (through
    {!Fmm_util.Table}, the classic bench output), the machine-readable
    [BENCH_*.json] report, and the baseline regression diff. Outcomes
    are pure data; every formatting decision lives here. *)

val tables_of_outcome : Experiment.outcome -> Fmm_util.Table.t list
(** One table per row section (first-appearance order): columns are the
    union of param keys then metric keys, string/bool columns
    left-aligned, missing cells rendered ["-"]. *)

val print_outcome : ?wall:bool -> Experiment.outcome -> unit
(** Section banner, tables, notes; [wall] appends the run time. *)

val schema_version : int

val strip_volatile : Experiment.outcome -> Experiment.outcome
(** Zero the wall clock and drop the [_s]-suffixed timer scalars — the
    only report fields that legitimately differ between two runs of
    the same experiment. What remains is deterministic at any
    [--jobs]: the differential determinism suite compares reports of
    stripped outcomes byte-for-byte. *)

val report_to_json :
  ?generator:string -> created:float -> Experiment.outcome list -> Json.t
(** The [BENCH_*.json] document: [schema_version], [generator],
    [created_unix], and per experiment its id, title, wall clock,
    scalars, rows (section/params/metrics) and notes. *)

val outcomes_of_json : Json.t -> (Experiment.outcome list, string) result
(** Load a report back (for baseline diffing). Rejects missing or
    mismatched [schema_version]. *)

(** The result of diffing two runs. *)
type diff = {
  lines : string list;
  n_compared : int;
  n_regressions : int;
  n_improvements : int;
  n_unmatched : int;
}

val diff :
  tolerance:float ->
  ?time_tolerance:float ->
  baseline:Experiment.outcome list ->
  current:Experiment.outcome list ->
  unit ->
  diff
(** Rows are matched on (experiment id, section, sorted params), whether
    or not they carry a ratio. A row's ["ratio"] metric is gated within
    a tolerance: current above baseline by more than [tolerance]
    (relative) is a regression, below it an improvement. Every other
    [Int] metric is an exact count and must equal the baseline row's;
    a difference, or a baseline row without that metric, is a
    regression printed as [REGRESSION <key>: <metric> <base> -> <cur>
    (exact)]. [Float], [Str] and [Bool] metrics other than the ratio
    are not gated. Per-experiment wall clocks are gated only when
    [time_tolerance] is given — wall clocks are load-sensitive, ratios
    and counts are not. A current row with a ratio or an [Int] metric
    but no baseline row, and a current experiment whose id the
    baseline does not contain at all, are counted in [n_unmatched] (an
    [UNMATCHED] line each). *)

val passes : diff -> bool
(** The gate fails closed: no regression and nothing unmatched. A row
    or an experiment the baseline does not cover is ungated, so it
    fails the gate until the baseline is regenerated. *)
