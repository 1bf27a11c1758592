(** From measured jobs and their spans to named metrics, and the
    result line. *)

type job = {
  index : int;  (** the span job id *)
  traced : bool;
  coverage : bool;  (** a smoke-size job of another workload (traced runs only) *)
  wall : float;  (** seconds *)
  words : float;  (** words allocated *)
  tally : Jobs.tally;
}

type metric = { name : string; unit : string; value : float }

val end_to_end : setups:float list -> peak_rss_mb:float -> job list -> metric list
(** Medians over the untraced jobs. *)

val per_layer : Span.t list -> job list -> metric list
(** Each layer metric is the median, over the traced measured jobs, of
    the per-job value from that job's spans and counts. A layer the
    workload never calls takes its value from the coverage jobs.
    [wall_s] is the untraced jobs' median wall time and
    [trace_overhead_s] the traced minus the untraced median wall. *)

val median : float list -> float

val result_line : job list -> metric list -> string
(** [{"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}]
    on one line; checks are counted over every job. *)
