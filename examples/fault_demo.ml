(* Fault-injection demo: crash processors mid-run and price the three
   recovery policies in the paper's currency — words moved per
   processor (Theorem 1.1).

   The walk: a fault-free BFS-partitioned Strassen run, the same run
   with seeded crashes under each policy, the replay validation that
   proves every recovered execution still satisfies read-before-send,
   and a failure-count sweep showing how recovery overhead scales.

   Run with:  dune exec examples/fault_demo.exe *)

module Cd = Fmm_cdag.Cdag
module S = Fmm_bilinear.Strassen
module W = Fmm_machine.Workload
module PE = Fmm_machine.Par_exec
module B = Fmm_bounds.Bounds
module Sim = Fmm_fault.Sim
module Dg = Fmm_analysis.Diagnostic
module Pc = Fmm_analysis.Par_check

let () =
  let n = 16 and depth = 1 and procs = 7 and seed = 3 in
  let cdag = Cd.build S.strassen ~n in
  let work = W.of_cdag cdag in
  let assignment = PE.bfs_assignment cdag ~depth ~procs in
  let bound = B.fast_memind ~n ~p:procs () in

  let base = PE.run work ~procs ~assignment in
  Printf.printf "H^{%dx%d} on P = %d (BFS depth %d)\n" n n procs depth;
  Printf.printf "fault-free: %d words total, %d max/proc (Thm 1.1 memind %.1f)\n\n"
    base.PE.total_words base.PE.max_words bound;

  print_endline "=== zero failures: every policy IS the plain executor ===";
  List.iter
    (fun policy ->
      let r = Sim.simulate work ~procs ~assignment ~policy ~fail:0 ~seed () in
      Printf.printf "  %-12s %d words  (parity: %s)\n" (Sim.policy_name policy)
        r.Sim.total_words
        (if r.Sim.sent = base.PE.sent && r.Sim.received = base.PE.received
         then "exact"
         else "BROKEN"))
    [ Sim.Recompute_local; Sim.Refetch_owner; Sim.Replicate 1 ];
  print_newline ();

  print_endline "=== two seeded crashes, one per policy ===";
  let steps =
    (* the sweep executes exactly the non-input vertices *)
    W.n_vertices work - Array.length (W.inputs work)
  in
  let schedule = Sim.derive_failures ~procs ~steps ~fail:2 ~seed in
  List.iter
    (fun e -> Printf.printf "  crash: processor %d before step %d\n" e.Sim.proc e.Sim.step)
    schedule;
  List.iter
    (fun policy ->
      let r = Sim.simulate work ~procs ~assignment ~policy ~fail:2 ~seed ~bound () in
      let replay = Sim.check work r in
      Printf.printf
        "  %-12s %5d words (overhead %.3f)  recovery %d, replication %d, \
         recomputed %d, replay %s\n"
        (Sim.policy_name policy) r.Sim.total_words r.Sim.overhead_total
        r.Sim.recovery_words r.Sim.replication_words r.Sim.recomputed
        (if Dg.n_errors replay.Pc.report = 0 && replay.Pc.lost_outputs = 0
         then "clean"
         else "INVALID");
      ())
    [ Sim.Recompute_local; Sim.Refetch_owner; Sim.Replicate 2 ];
  print_newline ();

  print_endline "=== recompute-local overhead vs failure count ===";
  List.iter
    (fun fail ->
      let r =
        Sim.simulate work ~procs ~assignment ~policy:Sim.Recompute_local ~fail
          ~seed ~bound ()
      in
      Printf.printf "  %2d failure(s): %5d words, overhead %.3f, %d re-derived\n"
        fail r.Sim.total_words r.Sim.overhead_total r.Sim.recomputed)
    [ 0; 1; 2; 4; 8; 16 ];
  print_newline ();

  print_endline
    "(recomputation is the recovery mechanism: lost sub-CDAGs are re-derived\n\
    \ rather than checkpointed, and only the re-fetched operands cost words —\n\
    \ the same trade the paper prices for sequential I/O)"
