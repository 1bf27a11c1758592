(* Static analyzer demo: run all three Fmm_analysis passes over a
   depth-3 Strassen CDAG — clean artifacts first, then deliberately
   corrupted ones — and show how each defect is pinned to a vertex,
   trace step or edge. The same checks back the `fmmlab analyze`
   subcommand and the test-suite cross-checks.

   Run with:  dune exec examples/analyzer_demo.exe *)

module Cd = Fmm_cdag.Cdag
module S = Fmm_bilinear.Strassen
module W = Fmm_machine.Workload
module Tr = Fmm_machine.Trace
module Ord = Fmm_machine.Orders
module Sch = Fmm_machine.Schedulers
module PE = Fmm_machine.Par_exec
module Dg = Fmm_analysis.Diagnostic
module Lint = Fmm_analysis.Cdag_lint
module Tc = Fmm_analysis.Trace_check
module Pc = Fmm_analysis.Par_check

let () =
  let n = 8 and m = 64 and procs = 7 in
  let cdag = Cd.build S.strassen ~n in
  let w = W.of_cdag cdag in
  Printf.printf "H^{%dx%d}: %d vertices, %d edges; M = %d\n\n" n n
    (Cd.n_vertices cdag) (Cd.n_edges cdag) m;

  print_endline "=== pass 1: CDAG lint (Definition 2.1 / Fact 2.1) ===";
  print_endline (Dg.render (Lint.lint cdag));
  print_newline ();

  print_endline "=== pass 2: trace check (LRU schedule) ===";
  let res = Sch.run_lru w ~cache_size:m (Ord.recursive_dfs cdag) in
  let chk = Tc.check ~cache_size:m w res.Sch.trace in
  print_endline (Dg.render chk.Tc.report);
  Printf.printf "  peak occupancy %d / M = %d; io = %d\n\n"
    chk.Tc.peak_occupancy m (Tr.io chk.Tc.counters);

  print_endline "=== pass 2 on a recomputing schedule ===";
  let rem = Sch.run_rematerialize w ~cache_size:m (Ord.recursive_dfs cdag) in
  let chk_r = Tc.check ~cache_size:m w rem.Sch.trace in
  print_endline (Dg.render chk_r.Tc.report);
  print_newline ();

  print_endline "=== pass 3: parallel race check (BFS partition) ===";
  let assignment = PE.bfs_assignment cdag ~depth:1 ~procs in
  let pr = Pc.check w ~procs ~assignment in
  print_endline (Dg.render pr.Pc.report);
  Printf.printf "  %d words moved; ownership: %s\n\n" pr.Pc.total_words
    (String.concat " "
       (Array.to_list (Array.map string_of_int pr.Pc.owned)));

  print_endline "=== corruption 1: delete the first Load of the trace ===";
  let deleted = ref false in
  let corrupted =
    Tr.of_list
      (List.filter
         (function
           | Tr.Load _ when not !deleted ->
             deleted := true;
             false
           | _ -> true)
         (Tr.to_list res.Sch.trace))
  in
  let bad = Tc.check ~cache_size:m w corrupted in
  print_endline (Dg.render ~limit:3 bad.Tc.report);
  print_newline ();

  print_endline "=== corruption 2: halve the cache under the same trace ===";
  let bad2 = Tc.check ~cache_size:(m / 2) w res.Sch.trace in
  print_endline (Dg.render ~limit:3 bad2.Tc.report);
  print_newline ();

  print_endline "=== corruption 3: reassign a producer cross-processor ===";
  (* a 4-stage pipeline makes the hazard mechanism plain: with x, y on
     processor 0 and z on processor 1, running the owners phase by
     phase (p0's program, then p1's) is race-free; move the producer x
     to the later phase and p0's y now reads a word p1 has not sent *)
  let gp = Fmm_graph.Digraph.create () in
  let ids = Fmm_graph.Digraph.add_vertices gp 4 in
  Fmm_graph.Digraph.add_edge gp ids.(0) ids.(1);
  Fmm_graph.Digraph.add_edge gp ids.(1) ids.(2);
  Fmm_graph.Digraph.add_edge gp ids.(2) ids.(3);
  let wp =
    W.make ~name:"pipeline" ~graph:gp ~inputs:[| ids.(0) |]
      ~outputs:[| ids.(3) |] ()
  in
  let a_ok = [| 0; 0; 0; 1 |] in
  let ok =
    Pc.check
      ~order:(Pc.phased_order wp ~procs:2 ~assignment:a_ok)
      wp ~procs:2 ~assignment:a_ok
  in
  Printf.printf "  in -> x -> y -> out on 2 phased processors: %d race(s)\n"
    ok.Pc.races;
  let a_bad = [| 0; 1; 0; 1 |] in
  let bad3 =
    Pc.check
      ~order:(Pc.phased_order wp ~procs:2 ~assignment:a_bad)
      wp ~procs:2 ~assignment:a_bad
  in
  Printf.printf "  after reassigning the producer x to processor 1:\n";
  print_endline (Dg.render bad3.Pc.report)
