(* Certifier demo: the static analyses of Fmm_analysis.Dataflow
   (MAXLIVE, the policy-independent I/O lower bound, trace profiles)
   cross-checked against the dynamic evidence of the schedulers — the
   machinery behind `fmmlab analyze --certify` — plus the incremental
   legality oracle (check_cached / check_delta) that the beam-search
   optimizer runs on.

   Run with:  dune exec examples/certifier_demo.exe *)

module Cd = Fmm_cdag.Cdag
module S = Fmm_bilinear.Strassen
module W = Fmm_machine.Workload
module Tr = Fmm_machine.Trace
module Ord = Fmm_machine.Orders
module Sch = Fmm_machine.Schedulers
module Df = Fmm_analysis.Dataflow
module Tc = Fmm_analysis.Trace_check
module Ct = Fmm_analysis.Certify
module O = Fmm_opt.Optimizer

let () =
  let n = 8 and m = 48 in
  let cdag = Cd.build S.strassen ~n in
  let w = W.of_cdag cdag in
  let order = Ord.recursive_dfs cdag in
  Printf.printf "H^{%dx%d}: %d vertices; M = %d\n\n" n n (Cd.n_vertices cdag) m;

  print_endline "=== static: liveness of the recursive DFS order ===";
  let lv = Df.order_liveness w (Array.of_list order) in
  Printf.printf
    "  MAXLIVE %d (spill-free minimum cache), %d inputs used, %d outputs stored\n"
    lv.Df.maxlive lv.Df.inputs_used lv.Df.outputs_stored;
  Printf.printf "  static I/O lower bound at M=%d: %d\n" m
    (Df.io_lower_bound lv ~cache_size:m);
  Printf.printf "  ... and at M=MAXLIVE it collapses to inputs+outputs: %d\n\n"
    (Df.io_lower_bound lv ~cache_size:lv.Df.maxlive);

  print_endline "=== dynamic: the certifier's static/dynamic cross-check ===";
  let c = Ct.run ~cdag ~cache_size:m w ~order in
  List.iter
    (fun r ->
      if r.Ct.feasible then
        Printf.printf "  %-7s io %6d  peak %3d  static min-cache %3d  %s\n"
          r.Ct.policy r.Ct.io r.Ct.peak_occupancy r.Ct.min_cache
          (if r.Ct.agree then "agree" else "MISMATCH")
      else Printf.printf "  %-7s infeasible at M=%d\n" r.Ct.policy m)
    c.Ct.rows;
  (match (c.Ct.segment_r, c.Ct.segment_bound, c.Ct.segment_min_io) with
  | Some r, Some b, Some io ->
    Printf.printf "  Lemma 3.6 (r=%d): min segment I/O %d >= bound %d\n" r io b
  | _ -> ());
  Printf.printf "  certified: %b\n\n" (Ct.certified c);

  print_endline "=== the spill-free regime: Belady at M = MAXLIVE ===";
  let res = Sch.run_belady w ~cache_size:lv.Df.maxlive order in
  Printf.printf "  measured io %d = inputs %d + outputs %d (the bound is tight)\n\n"
    (Tr.io res.Sch.counters) lv.Df.inputs_used lv.Df.outputs_stored;

  print_endline "=== the incremental oracle: check_delta vs a full check ===";
  let trace = (Sch.run_lru w ~cache_size:m order).Sch.trace in
  let _, base = Tc.check_cached ~cache_size:m w trace in
  (* mutate one window: swap two adjacent loads mid-trace *)
  let arr = Array.of_list (Tr.to_list trace) in
  let rec find i =
    match (arr.(i), arr.(i + 1)) with
    | Tr.Load a, Tr.Load b when a <> b -> i
    | _ -> find (i + 1)
  in
  let i = find (Array.length arr / 2) in
  let tmp = arr.(i) in
  arr.(i) <- arr.(i + 1);
  arr.(i + 1) <- tmp;
  let v = Tc.check_delta ~base w (Tr.of_list (Array.to_list arr)) in
  Printf.printf
    "  %d-event trace, one swapped window: %d reused (prefix), %d replayed, %d reused (suffix)\n"
    (Array.length arr) v.Tc.reused_prefix v.Tc.replayed v.Tc.reused_suffix;
  Printf.printf "  verdict: %d violation(s), peak %d\n\n" v.Tc.v_errors
    v.Tc.v_peak_occupancy;

  print_endline "=== the same oracle inside the beam search ===";
  let r = O.optimize_cdag cdag ~cache_size:m ~beam:3 ~iters:2 in
  Printf.printf "  best io %d (%s); oracle re-interpreted %d of %d events (%.1f%%)\n"
    r.O.best.O.io (O.oracle_mode_name r.O.oracle_mode) r.O.oracle_replayed
    r.O.oracle_total
    (100. *. float_of_int r.O.oracle_replayed /. float_of_int (max 1 r.O.oracle_total))
