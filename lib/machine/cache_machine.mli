(** The sequential machine model of Section II-B: a fast memory of M
    words and an unbounded slow memory; inputs start slow, computations
    require resident operands, every Load/Store is one I/O. Acts as the
    legality oracle for every scheduler: any trace they emit must
    {!replay} cleanly.

    Recomputation is legal by default (a vertex may be computed many
    times) — exactly the freedom whose futility for fast MM the paper
    proves; [allow_recompute = false] turns the machine into the
    classical no-recomputation model. *)

exception Illegal of string

type config = { cache_size : int; allow_recompute : bool }

type state

val init : config -> Workload.t -> state
(** Fresh machine: inputs in slow memory, cache empty. *)

val apply : state -> int -> unit
(** One step, given the event's packed code ({!Trace.load}, ...).
    Raises {!Illegal} on any model violation (missing
    operand, cache overflow, load of an absent value, ...); the
    message names the offending 0-based trace step and vertex id. *)

val counters : state -> Trace.counters

val check_final : state -> unit
(** Every CDAG output must have been computed and stored. Raises one
    {!Illegal} listing {e all} unsatisfied outputs, each located as
    ["vertex %d: ..."] (the static analyzer's location convention). *)

val replay : config -> Workload.t -> Trace.t -> Trace.counters
(** [init], [apply] each event, [check_final]; the counters on
    success. *)
