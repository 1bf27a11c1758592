(** Open-addressing tables from nonnegative int keys to int values:
    linear probing, growth at half load, deletion by backward shift (no
    tombstones). No operation allocates except a growth, so a table
    created with room for every key it will hold never allocates again.
    A table is only probed, never iterated, so nothing depends on where
    a key lands. *)

type t

val create : int -> t
(** A table with room for [n] keys before its first growth (capacity
    the smallest power of two, at least 64, that is at least [2n]). *)

val find : t -> int -> int
(** The value bound to a key. Raises [Not_found] when it is absent. *)

val replace : t -> int -> int -> unit
(** Bind a key, replacing its value if it is present. Raises
    [Invalid_argument] on a negative key. *)

val incr : t -> int -> unit
(** Add one to a key's value, an absent key counting as 0. Raises
    [Invalid_argument] on a negative key. *)

val take : t -> int -> int
(** Remove a key and return its value, 0 when it is absent (a
    negative key is always absent). *)
