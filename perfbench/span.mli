(** Benchmark-side span recorder. Every call the benchmark makes into
    a layer's public function goes through {!call}; with recording on,
    each call leaves one span in memory. Spans are written out once, at
    exit ({!write_jsonl}). With recording off, {!call} is a plain
    application. *)

type t = {
  id : int;
  name : string;  (** [<lib>.<module>.<function>], e.g. [machine.schedulers.run_lru] *)
  job : int;  (** the job (one pipeline run) the span belongs to *)
  parent : int;  (** id of the enclosing span; [-1] for a root *)
  start_ns : int64;
  stop_ns : int64;
  words : float;  (** words allocated between start and stop *)
}

val set_recording : bool -> unit

val set_job : int -> unit
(** Tag subsequent spans with this job id. *)

val call : string -> (unit -> 'a) -> 'a
(** [call name f] runs [f ()] inside a span named [name]
    (exception-safe; nested calls become children). *)

val recorded : unit -> t list
(** Every span so far, in start order. *)

val clear : unit -> unit

val self_times : t list -> (t * float) list
(** Each span paired with its self time: its duration minus the
    durations of its direct children (seconds). Children are matched by
    [parent] id within the given list. *)

val write_jsonl : string -> t list -> unit
(** One JSON object per line; creates the parent directory. *)
