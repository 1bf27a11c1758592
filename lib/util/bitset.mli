(** Fixed-capacity bitsets over ids [0..n-1], packed eight to a byte.
    The residency, claim and first-time sets of the machine-level
    analyses live here, so a run's per-vertex state costs V/8 bytes
    instead of one word per vertex. *)

type t

val create : int -> t
(** All-zero set with capacity for ids [0..n-1]. *)

val capacity : t -> int
val mem : t -> int -> bool
val add : t -> int -> unit
val remove : t -> int -> unit
val copy : t -> t

val blit : src:t -> dst:t -> unit
(** Overwrite [dst] with [src]'s contents (same capacity required). *)

val cardinal : t -> int
val equal : t -> t -> bool

val iter : (int -> unit) -> t -> unit
(** Ascending id order. *)

val to_list : t -> int list
(** Ascending. *)
