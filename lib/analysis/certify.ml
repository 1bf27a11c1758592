(* The certifier: runs the static analyses of Dataflow against the
   dynamic evidence of the schedulers and reports any disagreement as
   an error diagnostic. Four cross-checks per workload/order:

     1. MAXLIVE / min-cache: Dataflow.trace_profile's peak occupancy
        (the smallest M for which the trace is legal) must equal
        Trace_check.check's dynamically tracked peak_occupancy on
        every policy's trace.
     2. Static I/O lower bound: io_lower_bound (interval liveness of
        the order) must be <= the measured I/O of every
        no-recomputation policy (LRU, Belady). Rematerialization is
        exempt — escaping this bound is exactly what recomputation
        buys, and the sandwich row makes that visible.
     3. Legality: every scheduler trace checks clean (zero errors).
     4. Lemma 3.6 (optional, CDAG only): the segment bound holds on
        the LRU trace.

   Everything here is deterministic and clock-free; the parallel path
   only fans the three policy runs over Fmm_par.Pool, which is
   order-preserving, so reports are identical at any [jobs]. *)

module W = Fmm_machine.Workload
module Tr = Fmm_machine.Trace
module Sch = Fmm_machine.Schedulers
module Seg = Fmm_machine.Segments
module Cd = Fmm_cdag.Cdag
module Dg = Diagnostic
module Tc = Trace_check
module Df = Dataflow

let pass = "certify"

type policy_row = {
  policy : string;
  feasible : bool;
  io : int;  (** -1 when infeasible *)
  peak_occupancy : int;
  min_cache : int;  (** static: Dataflow.trace_profile's peak *)
  dead_loads : int;
  redundant_stores : int;
  recomputes : int;
  agree : bool;  (** static min_cache = dynamic peak_occupancy *)
}

type t = {
  workload : string;
  cache_size : int;
  order_len : int;
  maxlive : int;
  inputs_used : int;
  outputs_stored : int;
  io_lower_bound : int;
  segment_r : int option;
  segment_bound : int option;
  segment_min_io : int option;
  rows : policy_row list;
  report : Dg.report;
}

(* The segment granularity the optimizer's reorder move targets: the
   largest power of the base dimension with r <= max(n0, 2 sqrt M). *)
let default_segment_r cdag ~cache_size =
  let size = Cd.size cdag in
  let base =
    let n0, _, _ = Fmm_bilinear.Algorithm.dims (Cd.base_algorithm cdag) in
    max 2 n0
  in
  let target = max base (2 * int_of_float (sqrt (float_of_int cache_size))) in
  let r = ref base in
  while !r * base <= size && !r * base <= target do
    r := !r * base
  done;
  if !r > size then None else Some !r

let infeasible name =
  {
    policy = name;
    feasible = false;
    io = -1;
    peak_occupancy = 0;
    min_cache = 0;
    dead_loads = 0;
    redundant_stores = 0;
    recomputes = 0;
    agree = true;
  }

let run ?(jobs = 1) ?cdag ?segment_r ?max_flops ~cache_size (work : W.t)
    ~(order : int list) =
  let c = Dg.Collector.create ~pass ~title:"certifier" in
  let err ~code loc fmt = Dg.Collector.addf c Dg.Error ~code loc fmt in
  let info ~code loc fmt = Dg.Collector.addf c Dg.Info ~code loc fmt in
  let lv = Df.order_liveness work (Array.of_list order) in
  let lb = Df.io_lower_bound lv ~cache_size in
  let policies =
    [
      ("lru", fun () -> Sch.run_lru work ~cache_size order);
      ("belady", fun () -> Sch.run_belady work ~cache_size order);
      ( "remat",
        fun () -> Sch.run_rematerialize ?max_flops work ~cache_size order );
    ]
  in
  let runs =
    Fmm_par.Pool.map ~jobs:(max 1 jobs)
      (fun (name, run) ->
        match run () with
        | r ->
          let chk = Tc.check ~cache_size work r.Sch.trace in
          let prof = Df.trace_profile work r.Sch.trace in
          (name, Some (r, chk, prof))
        | exception (Failure _ | Sch.Cache_too_small _) -> (name, None))
      policies
  in
  let lru_trace = ref None in
  let rows =
    List.map
      (fun (name, outcome) ->
        match outcome with
        | None -> infeasible name
        | Some ((r : Sch.result), (chk : Tc.result), (prof : Df.profile)) ->
          if name = "lru" then lru_trace := Some r.Sch.trace;
          let io = Tr.io r.Sch.counters in
          let agree = prof.Df.min_cache = chk.Tc.peak_occupancy in
          if not agree then
            err ~code:"maxlive-mismatch" Dg.Global
              "%s: static min-cache %d disagrees with dynamic peak occupancy \
               %d"
              name prof.Df.min_cache chk.Tc.peak_occupancy;
          if Dg.n_errors chk.Tc.report > 0 then
            err ~code:"illegal-trace" Dg.Global
              "%s: scheduler trace has %d violation(s)" name
              (Dg.n_errors chk.Tc.report);
          if chk.Tc.peak_occupancy > cache_size then
            err ~code:"peak-exceeds-cache" Dg.Global
              "%s: peak occupancy %d exceeds the declared cache size %d" name
              chk.Tc.peak_occupancy cache_size;
          if chk.Tc.counters.Tr.recomputes = 0 && io < lb then
            err ~code:"lb-violated" Dg.Global
              "%s: measured I/O %d beats the static lower bound %d — the \
               bound (or the scheduler) is unsound"
              name io lb;
          {
            policy = name;
            feasible = true;
            io;
            peak_occupancy = chk.Tc.peak_occupancy;
            min_cache = prof.Df.min_cache;
            dead_loads = chk.Tc.dead_loads;
            redundant_stores = chk.Tc.redundant_stores;
            recomputes = chk.Tc.counters.Tr.recomputes;
            agree;
          })
      runs
  in
  if List.for_all (fun r -> not r.feasible) rows then
    err ~code:"no-policy-ran" Dg.Global
      "no fixed policy executed at M=%d (cache too small?)" cache_size;
  if lv.Df.maxlive <= cache_size then
    info ~code:"spill-free" Dg.Global
      "MAXLIVE %d <= M=%d: this order admits a spill-free schedule (I/O = %d)"
      lv.Df.maxlive cache_size
      (lv.Df.inputs_used + lv.Df.outputs_stored);
  let segment_r, segment_bound, segment_min_io =
    match cdag with
    | None -> (None, None, None)
    | Some cdag -> (
      let r =
        match segment_r with
        | Some r -> Some r
        | None -> default_segment_r cdag ~cache_size
      in
      match (r, !lru_trace) with
      | Some r, Some trace ->
        let a = Seg.analyze cdag ~cache_size ~r trace in
        if not (Seg.lemma_3_6_holds a) then
          err ~code:"segment-bound" Dg.Global
            "Lemma 3.6 violated at r=%d: some full segment moves fewer than \
             ceil(r^2/2) - M = %d words"
            r a.Seg.bound;
        (Some r, Some a.Seg.bound, Seg.min_io_full_segments a)
      | _ -> (None, None, None))
  in
  {
    workload = W.name work;
    cache_size;
    order_len = List.length order;
    maxlive = lv.Df.maxlive;
    inputs_used = lv.Df.inputs_used;
    outputs_stored = lv.Df.outputs_stored;
    io_lower_bound = lb;
    segment_r;
    segment_bound;
    segment_min_io;
    rows;
    report = Dg.Collector.report c;
  }

let certified t = Dg.is_clean t.report
