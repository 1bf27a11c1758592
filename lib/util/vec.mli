(** Minimal growable array (OCaml 5.1 predates the stdlib [Dynarray]).
    The CDAG builder appends one metadata record per vertex in id order;
    [get]/[set] then serve random access during analysis. *)

type 'a t

val create : dummy:'a -> 'a t
(** [dummy] fills unused capacity; it is never observable. *)

val length : 'a t -> int

val clear : 'a t -> unit
(** Empty the vector, keeping its capacity (no allocation). *)

val push : 'a t -> 'a -> unit
val get : 'a t -> int -> 'a
val set : 'a t -> int -> 'a -> unit
val to_array : 'a t -> 'a array
val iteri : (int -> 'a -> unit) -> 'a t -> unit
