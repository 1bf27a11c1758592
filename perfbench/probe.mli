(** Clock, allocation and memory probes. *)

val now_ns : unit -> int64
(** Monotonic clock, nanoseconds. *)

val seconds_between : int64 -> int64 -> float

val words : unit -> float
(** Words allocated by this domain since start: minor + major -
    promoted, after a minor collection so the counters are current. At
    [jobs 1] the difference across a deterministic computation repeats
    exactly. *)

val parse_vmhwm_kb : string -> int option
(** The kB figure of a ["VmHWM:   1234 kB"] line of [/proc/self/status]. *)

val peak_rss_mb : unit -> float
(** Peak resident set in MiB from [VmHWM]; where [/proc] is absent,
    falls back to the OCaml heap's high-water mark
    ([Gc.top_heap_words]), which omits off-heap Bigarray storage. *)
