(** Execution traces of the sequential machine model (Section II-B of
    the paper): a program is a sequence of loads, stores, evictions and
    computations over CDAG vertices.

    A trace is packed: one int per event, the event's vertex and kind
    in a single immediate word, and no slack, so structural equality
    compares two traces event by event. Hot paths read it in place
    through {!length}, {!code}, {!vertex} and {!kind}, which allocate
    nothing; the boxed {!event} view ({!get}, {!iter}, {!fold},
    {!to_list}, {!of_list}) is for tests, diagnostics and cold
    command-line paths. *)

type event =
  | Load of int  (** slow -> fast; one I/O read *)
  | Store of int  (** fast -> slow; one I/O write *)
  | Evict of int  (** drop from fast memory; free *)
  | Compute of int  (** all predecessors must be in fast memory *)

type t

type kind = [ `Load | `Store | `Evict | `Compute ]

(** {2 Packed codes} *)

val load : int -> int
val store : int -> int
val evict : int -> int

val compute : int -> int
(** The packed code of one event on a vertex. Ids from [min_int / 4]
    to [max_int / 4] pack, negative ones included (the trace checker
    reports those as bad vertices); others raise [Invalid_argument]. *)

val vertex : int -> int
(** The vertex of a packed code. *)

val kind : int -> kind
(** The kind of a packed code. *)

(** {2 Reading a trace} *)

val length : t -> int

val code : t -> int -> int
(** [code t i] is the packed code of event [i] (0-based). *)

val iter_codes : (int -> unit) -> t -> unit

val get : t -> int -> event
val iter : (event -> unit) -> t -> unit
val fold : ('a -> event -> 'a) -> 'a -> t -> 'a
val to_list : t -> event list
val of_list : event list -> t
val event_to_string : event -> string

(** {2 Building a trace} *)

type builder
(** A growable buffer of packed codes, kept in chunks of at most 2^16
    words: adding a code never copies the codes before it. *)

val builder : unit -> builder
val add : builder -> int -> unit

val freeze : builder -> t
(** The codes added so far, copied once into an exact-length trace. *)

(** {2 Counters} *)

type counters = {
  loads : int;
  stores : int;
  computes : int;
  recomputes : int;  (** computations of an already-computed vertex *)
}

val io : counters -> int
(** loads + stores — the model's communication cost. *)

val count : t -> counters
(** Recount a trace from its events alone (a Compute of an
    already-computed vertex is a recomputation). For every scheduler
    result [r], [count r.trace = r.counters]. *)

val pp_counters : Format.formatter -> counters -> unit
