(** The benchmark's workloads. A workload is prepared once per process
    from the seed (algorithm lookup, seeded operand generation) into a
    job closure; a job runs the workload's whole pipeline once, calling
    every layer through {!Span.call}, and records its counts and answer
    checks in a {!tally}. *)

type size =
  | Full  (** the sizes the benchmark measures *)
  | Smoke  (** n = 8/16 (dense n = 128): the test suite's size *)

type tally
(** Per-job named counts plus the answer checks. *)

val new_tally : unit -> tally
val count : tally -> string -> float option
val checks_attempted : tally -> int
val checks_failed : tally -> int

val failures : tally -> string list
(** Descriptions of the failed checks, oldest first. *)

val check : tally -> string -> bool -> unit
(** Record one attempted check; [false] counts as failed. *)

type workload = {
  name : string;
  prepare : seed:int -> size -> tally -> unit;
      (** [prepare ~seed size] performs the set-up and returns the job *)
}

val all : workload list
(** [spill-n64], [remat-n16], [stream-n128], [dense-n1024]. *)

val find : string -> workload option

val operands : seed:int -> size -> Fmm_exec.Kernel.mat * Fmm_exec.Kernel.mat
(** The dense workload's seeded operand pair. *)
