(* The segment analysis of Lemma 3.6 / Theorem 1.1, applied to concrete
   execution traces. The proof partitions a schedule into segments each
   containing Q first-time computations of V_out(SUB_H^{r x r}) (with
   r = 2 sqrt(M) and Q = 4M in the theorem) and shows every segment
   performs at least r^2/2 - n_init >= M I/O operations.

   [analyze] replays a trace, cuts it into such segments, and reports
   the I/O of each — the benches compare the minimum observed segment
   I/O against the bound, which is how the abstract counting argument
   becomes a measurable property of real schedules. *)

module Cd = Fmm_cdag.Cdag

type segment = {
  index : int;
  output_computations : int; (* first-time computes of SUB outputs *)
  io : int;
  loads : int;
  stores : int;
}

type analysis = {
  r : int;
  quota : int;
  segments : segment list;
  bound : int; (* the Lemma 3.6 per-segment bound r^2/2 - M *)
  cache_size : int;
}

(** The shared fold: cut an event stream into segments of [quota]
    first-time computations of V_out(SUB_H^{r x r}) and count the I/O
    in each. The final partial segment is included (callers typically
    exclude it from minima, as the theorem does). [iter] drives the
    fold with packed event codes — a materialized trace for the
    explicit path, a live streaming execution for the implicit one —
    and [is_sub_output] is a predicate, so membership can be an array
    lookup or O(log n) arithmetic. First-time-ness is tracked in a bitset (V/8 bytes). *)
let analyze_events ~n_vertices ~is_sub_output ~cache_size ~r ?quota iter =
  let quota =
    match quota with Some q -> q | None -> max 1 (4 * cache_size)
  in
  let computed = Fmm_util.Bitset.create n_vertices in
  let segments = ref [] in
  let seg_outputs = ref 0 and seg_loads = ref 0 and seg_stores = ref 0 in
  let seg_index = ref 0 in
  let close_segment () =
    segments :=
      {
        index = !seg_index;
        output_computations = !seg_outputs;
        io = !seg_loads + !seg_stores;
        loads = !seg_loads;
        stores = !seg_stores;
      }
      :: !segments;
    incr seg_index;
    seg_outputs := 0;
    seg_loads := 0;
    seg_stores := 0
  in
  iter (fun code ->
      match Trace.kind code with
      | `Load -> incr seg_loads
      | `Store -> incr seg_stores
      | `Evict -> ()
      | `Compute ->
        let v = Trace.vertex code in
        if is_sub_output v && not (Fmm_util.Bitset.mem computed v) then begin
          Fmm_util.Bitset.add computed v;
          incr seg_outputs;
          if !seg_outputs = quota then close_segment ()
        end);
  if !seg_outputs > 0 || !seg_loads + !seg_stores > 0 then close_segment ();
  {
    r;
    quota;
    segments = List.rev !segments;
    (* ceil(r^2 / 2): truncating division silently weakened the check
       by one for odd r *)
    bound = ((r * r) + 1) / 2 - cache_size;
    cache_size;
  }

let analyze cdag ~cache_size ~r ?quota (trace : Trace.t) =
  let is_sub_output = Array.make (Cd.n_vertices cdag) false in
  List.iter (fun v -> is_sub_output.(v) <- true) (Cd.sub_outputs cdag ~r);
  analyze_events ~n_vertices:(Cd.n_vertices cdag)
    ~is_sub_output:(fun v -> is_sub_output.(v))
    ~cache_size ~r ?quota
    (fun f -> Trace.iter_codes f trace)

(** Segment analysis of the canonical LRU execution of an implicit
    CDAG: the streaming executor feeds the fold event-by-event, so no
    trace is ever materialized. Returns the executor's counters
    alongside. *)
let analyze_implicit imp ~cache_size ~r ?quota () =
  let module Im = Fmm_cdag.Implicit in
  let result = ref None in
  let analysis =
    analyze_events ~n_vertices:(Im.n_vertices imp)
      ~is_sub_output:(fun v -> Im.is_sub_output imp ~r v)
      ~cache_size ~r ?quota
      (fun f -> result := Some (Stream_exec.run_lru imp ~cache_size ~on_event:f ()))
  in
  match !result with
  | Some counters -> (analysis, counters)
  | None -> assert false

(** Full segments only (the theorem's counting excludes the last,
    possibly partial, one). *)
let full_segments a = List.filter (fun s -> s.output_computations = a.quota) a.segments

let min_io_full_segments a =
  match full_segments a with
  | [] -> None
  | l -> Some (List.fold_left (fun acc s -> min acc s.io) max_int l)

(** Does every full segment respect the Lemma 3.6 bound? (Trivially yes
    when the bound is <= 0 — the lemma only bites once r^2/2 > M.) *)
let lemma_3_6_holds a =
  List.for_all (fun s -> s.io >= a.bound) (full_segments a)
