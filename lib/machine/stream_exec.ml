(* Streaming LRU execution of an implicit CDAG: the shared scheduler
   core on the implicit Workload view, in ascending-id order. *)

let run_lru imp ~cache_size ?(on_event = fun (_ : int) -> ()) () =
  Schedulers.stream_lru (Workload.of_implicit imp) ~cache_size ~on_event

(* Materializing variant for differential tests at small n. *)
let run_lru_collect imp ~cache_size =
  let b = Trace.builder () in
  let counters = run_lru imp ~cache_size ~on_event:(Trace.add b) () in
  ({ Schedulers.trace = Trace.freeze b; counters } : Schedulers.result)
