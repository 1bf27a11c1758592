(* Streaming LRU execution of an implicit CDAG: the shared scheduler
   core on the implicit Workload view, in ascending-id order. *)

let run_lru imp ~cache_size ?(on_event = fun (_ : Trace.event) -> ()) () =
  if cache_size < 1 then invalid_arg "Stream_exec.run_lru: cache_size < 1";
  Schedulers.stream_lru (Workload.of_implicit imp) ~cache_size ~on_event

(* Materializing variant for differential tests at small n. *)
let run_lru_collect imp ~cache_size =
  let events = ref [] in
  let counters =
    run_lru imp ~cache_size ~on_event:(fun e -> events := e :: !events) ()
  in
  ({ Schedulers.trace = List.rev !events; counters } : Schedulers.result)
