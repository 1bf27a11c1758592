(* Tests for fmm_analysis: known-good CDAGs, traces and parallel
   assignments produce zero diagnostics; deliberately corrupted ones
   (edge removed, load deleted, overflowed cache, vertex reassigned
   cross-processor, ...) each trigger the expected diagnostic with a
   precise location; and the static trace checker agrees with the
   dynamic legality oracle on every scheduler's output. *)

module D = Fmm_graph.Digraph
module Cd = Fmm_cdag.Cdag
module S = Fmm_bilinear.Strassen
module W = Fmm_machine.Workload
module Tr = Fmm_machine.Trace
module Ord = Fmm_machine.Orders
module Sch = Fmm_machine.Schedulers
module CM = Fmm_machine.Cache_machine
module PE = Fmm_machine.Par_exec
module Dg = Fmm_analysis.Diagnostic
module Lint = Fmm_analysis.Cdag_lint
module Tc = Fmm_analysis.Trace_check
module Pc = Fmm_analysis.Par_check

let cdag2 = Cd.build S.strassen ~n:2
let cdag4 = Cd.build S.strassen ~n:4
let cdag8 = Cd.build S.strassen ~n:8
let w4 = W.of_cdag cdag4
let w8 = W.of_cdag cdag8

let has_code report code =
  List.exists (fun d -> d.Dg.code = code) report.Dg.diags

let find_code report code =
  List.find (fun d -> d.Dg.code = code) report.Dg.diags

(* plain substring search (no Str dependency) *)
let contains haystack needle =
  let nh = String.length haystack and nn = String.length needle in
  let rec go i = i + nn <= nh && (String.sub haystack i nn = needle || go (i + 1)) in
  go 0

(* --- diagnostics core --- *)

let test_report_rendering () =
  let c = Dg.Collector.create ~pass:"p" ~title:"t" in
  Dg.Collector.addf c Dg.Info ~code:"i" Dg.Global "fyi";
  Dg.Collector.addf c Dg.Error ~code:"e"
    (Dg.Step { step = 3; vertex = Some 7 })
    "boom %d" 42;
  let r = Dg.Collector.report c in
  Alcotest.(check int) "errors" 1 (Dg.n_errors r);
  Alcotest.(check int) "infos" 1 (Dg.n_infos r);
  Alcotest.(check bool) "not clean" false (Dg.is_clean r);
  Alcotest.(check bool) "not silent" false (Dg.is_silent r);
  (* human render sorts errors first even though the info came first *)
  let human = Dg.render r in
  Alcotest.(check bool) "rendered" true (contains human "boom 42");
  Alcotest.(check bool) "summary line" true (contains human "1 error(s)");
  let e = find_code r "e" in
  Alcotest.(check string) "located line"
    "error[p/e] @ step 3 (vertex 7): boom 42" (Dg.to_string e);
  let machine = Dg.to_machine_string e in
  Alcotest.(check string) "machine line" "error\tp\te\tstep\t3\t7\tboom 42"
    machine;
  (* merge concatenates *)
  let m = Dg.merge ~title:"m" [ r; r ] in
  Alcotest.(check int) "merged errors" 2 (Dg.n_errors m)

(* --- CDAG lint: clean graphs --- *)

let test_lint_clean () =
  List.iter
    (fun (name, cdag) ->
      let r = Lint.lint cdag in
      Alcotest.(check int) (name ^ " zero diagnostics") 0
        (List.length r.Dg.diags))
    [
      ("strassen n=2", cdag2);
      ("strassen n=4", cdag4);
      ("strassen n=8", cdag8);
      ("winograd n=4", Cd.build S.winograd ~n:4);
    ]

(* Rebuild a CDAG's graph minus one edge (Digraph is append-only, so
   corruption means building a fresh copy). *)
let copy_graph_without g ~src ~dst =
  let g' = D.create () in
  ignore (D.add_vertices g' (D.n_vertices g));
  for v = 0 to D.n_vertices g - 1 do
    List.iter
      (fun u ->
        if not (u = src && v = dst) then D.add_edge g' u v)
      (D.in_neighbors g v)
  done;
  g'

let test_lint_edge_removed () =
  (* drop one operand edge of a Mult vertex: degree-bound error at
     exactly that vertex *)
  let g = Cd.graph cdag4 in
  let mult =
    List.find
      (fun v -> Cd.role cdag4 v = Cd.Mult)
      (List.init (Cd.n_vertices cdag4) (fun i -> i))
  in
  let op = List.hd (D.in_neighbors g mult) in
  let g' = copy_graph_without g ~src:op ~dst:mult in
  let r =
    Lint.lint_graph ~graph:g' ~role:(Cd.role cdag4) ~inputs:(Cd.inputs cdag4)
      ~outputs:(Cd.outputs cdag4) ~base:(Cd.base_algorithm cdag4) ()
  in
  Alcotest.(check bool) "not clean" false (Dg.is_clean r);
  let d = find_code r "degree-bound" in
  Alcotest.(check bool) "located at the mult" true (d.Dg.loc = Dg.Vertex mult)

let test_lint_extra_edge () =
  (* an illegal Dec -> Enc_a back edge: role-edge (and cycle-free) *)
  let g = Cd.graph cdag2 in
  let g' = copy_graph_without g ~src:(-1) ~dst:(-1) in
  let enc =
    List.find
      (fun v -> Cd.role cdag2 v = Cd.Enc_a)
      (List.init (Cd.n_vertices cdag2) (fun i -> i))
  in
  let dec = (Cd.outputs cdag2).(0) in
  D.add_edge g' dec enc;
  let r =
    Lint.lint_graph ~graph:g' ~role:(Cd.role cdag2) ~inputs:(Cd.inputs cdag2)
      ~outputs:(Cd.outputs cdag2) ~base:(Cd.base_algorithm cdag2) ()
  in
  Alcotest.(check bool) "role-edge reported" true (has_code r "role-edge");
  let d = find_code r "role-edge" in
  Alcotest.(check bool) "edge located" true
    (d.Dg.loc = Dg.Edge { src = dec; dst = enc })

let test_lint_workload_hygiene () =
  (* clean butterfly-style workload *)
  let g = D.create () in
  let ids = D.add_vertices g 3 in
  D.add_edge g ids.(0) ids.(2);
  D.add_edge g ids.(1) ids.(2);
  let w = W.make ~graph:g ~inputs:[| ids.(0); ids.(1) |] ~outputs:[| ids.(2) |] () in
  Alcotest.(check int) "clean workload" 0
    (List.length (Lint.lint_workload w).Dg.diags);
  (* unused input: dead-vertex warning *)
  let g2 = D.create () in
  let ids2 = D.add_vertices g2 3 in
  D.add_edge g2 ids2.(0) ids2.(2);
  let w2 =
    W.make ~graph:g2 ~inputs:[| ids2.(0); ids2.(1) |] ~outputs:[| ids2.(2) |] ()
  in
  let r = Lint.lint_workload w2 in
  Alcotest.(check bool) "dead vertex warned" true (has_code r "dead-vertex");
  Alcotest.(check bool) "still clean of errors" true (Dg.is_clean r)

(* --- trace checker: clean schedules --- *)

let test_trace_clean_schedulers () =
  List.iter
    (fun (name, cdag, w, m, run) ->
      let res : Sch.result = run () in
      let chk = Tc.check ~cache_size:m w res.Sch.trace in
      Alcotest.(check int) (name ^ " zero errors") 0 (Dg.n_errors chk.report);
      Alcotest.(check int) (name ^ " zero warnings") 0
        (Dg.n_warnings chk.report);
      (* counters agree with the dynamic oracle *)
      let dyn =
        CM.replay { CM.cache_size = m; allow_recompute = true } w res.Sch.trace
      in
      Alcotest.(check int) (name ^ " loads agree") dyn.Tr.loads
        chk.counters.Tr.loads;
      Alcotest.(check int) (name ^ " stores agree") dyn.Tr.stores
        chk.counters.Tr.stores;
      Alcotest.(check int) (name ^ " recomputes agree") dyn.Tr.recomputes
        chk.counters.Tr.recomputes;
      ignore cdag)
    [
      ( "lru n=4",
        cdag4,
        w4,
        24,
        fun () -> Sch.run_lru w4 ~cache_size:24 (Ord.recursive_dfs cdag4) );
      ( "lru n=8",
        cdag8,
        w8,
        64,
        fun () -> Sch.run_lru w8 ~cache_size:64 (Ord.recursive_dfs cdag8) );
      ( "belady n=8",
        cdag8,
        w8,
        32,
        fun () -> Sch.run_belady w8 ~cache_size:32 (Ord.recursive_dfs cdag8) );
      ( "remat n=4",
        cdag4,
        w4,
        24,
        fun () -> Sch.run_rematerialize w4 ~cache_size:24 (Ord.recursive_dfs cdag4) );
      ( "remat n=8",
        cdag8,
        w8,
        80,
        fun () -> Sch.run_rematerialize w8 ~cache_size:80 (Ord.recursive_dfs cdag8) );
    ]

let test_trace_recompute_attribution () =
  let res = Sch.run_rematerialize w8 ~cache_size:32 (Ord.recursive_dfs cdag8) in
  let chk = Tc.check ~cache_size:32 w8 res.Sch.trace in
  Alcotest.(check bool) "remat clean of errors" true (Dg.is_clean chk.report);
  (* the dynamic oracle's recompute total equals the per-vertex sum *)
  let total = List.fold_left (fun acc (_, k) -> acc + k) 0 chk.Tc.recomputed in
  Alcotest.(check int) "attribution sums" res.Sch.counters.Tr.recomputes total;
  Alcotest.(check bool) "recomputation info emitted" true
    (res.Sch.counters.Tr.recomputes = 0
    || has_code chk.Tc.report "recomputation")

(* --- trace checker: seeded corruptions --- *)

(* the readable event view: corruptions are list edits *)
let lru_trace m =
  Tr.to_list (Sch.run_lru w4 ~cache_size:m (Ord.recursive_dfs cdag4)).Sch.trace

let test_trace_missing_load () =
  let trace = lru_trace 16 in
  let removed = ref (-1) and victim = ref (-1) in
  let corrupted =
    List.filteri
      (fun i e ->
        match e with
        | Tr.Load v when !removed < 0 ->
          removed := i;
          victim := v;
          false
        | _ -> true)
      trace
  in
  let chk = Tc.check ~cache_size:16 w4 (Tr.of_list corrupted) in
  Alcotest.(check bool) "errors found" false (Dg.is_clean chk.report);
  let d = find_code chk.Tc.report "operand-missing" in
  (* located at a trace step, naming the deleted value as the operand *)
  (match d.Dg.loc with
  | Dg.Step { step; vertex = Some _ } ->
    Alcotest.(check bool) "step is precise" true (step >= 0)
  | _ -> Alcotest.fail "expected step location");
  Alcotest.(check bool) "message names the lost operand" true
    (contains d.Dg.message (Printf.sprintf "operand %d" !victim))

let test_trace_overflow () =
  let trace = lru_trace 12 in
  let corrupted = List.filter (function Tr.Evict _ -> false | _ -> true) trace in
  let chk = Tc.check ~cache_size:12 w4 (Tr.of_list corrupted) in
  let d = find_code chk.Tc.report "cache-overflow" in
  (match d.Dg.loc with
  | Dg.Step { step; vertex = Some _ } ->
    Alcotest.(check bool) "overflow step located" true (step >= 0)
  | _ -> Alcotest.fail "expected step location");
  Alcotest.(check bool) "peak above M" true (chk.Tc.peak_occupancy > 12)

let test_trace_missing_final_store () =
  let trace = lru_trace 16 in
  let out = (Cd.outputs cdag4).(0) in
  let corrupted =
    List.filter (function Tr.Store v when v = out -> false | _ -> true) trace
  in
  let chk = Tc.check ~cache_size:16 w4 (Tr.of_list corrupted) in
  let d = find_code chk.Tc.report "missing-final-store" in
  Alcotest.(check bool) "located at the output" true (d.Dg.loc = Dg.Vertex out)

let test_trace_output_never_computed () =
  let out = (Cd.outputs cdag4).(0) in
  let corrupted =
    List.filter
      (function
        | Tr.Compute v when v = out -> false
        | Tr.Store v when v = out -> false
        | _ -> true)
      (lru_trace 16)
  in
  let chk = Tc.check ~cache_size:16 w4 (Tr.of_list corrupted) in
  let d = find_code chk.Tc.report "output-not-computed" in
  Alcotest.(check bool) "located at the output" true (d.Dg.loc = Dg.Vertex out)

let test_trace_collects_all_violations () =
  (* two independent corruptions -> (at least) two distinct errors,
     where the dynamic oracle stops at the first *)
  let trace = lru_trace 16 in
  let out = (Cd.outputs cdag4).(0) in
  let corrupted =
    List.filteri
      (fun i e ->
        (not (i = 0))
        && match e with Tr.Store v when v = out -> false | _ -> true)
      trace
  in
  let chk = Tc.check ~cache_size:16 w4 (Tr.of_list corrupted) in
  Alcotest.(check bool) "at least two errors" true
    (Dg.n_errors chk.Tc.report >= 2);
  Alcotest.(check bool) "dynamic oracle stops at one" true
    (try
       ignore
         (CM.replay { CM.cache_size = 16; allow_recompute = true } w4 (Tr.of_list corrupted));
       false
     with CM.Illegal _ -> true)

let test_trace_warnings () =
  (* dead load and redundant store on a tiny two-input workload *)
  let g = D.create () in
  let ids = D.add_vertices g 3 in
  D.add_edge g ids.(0) ids.(2);
  let w =
    W.make ~graph:g ~inputs:[| ids.(0); ids.(1) |] ~outputs:[| ids.(2) |] ()
  in
  let trace =
    [
      Tr.Load ids.(0);
      Tr.Store ids.(0) (* redundant: inputs are already in slow memory *);
      Tr.Load ids.(1);
      Tr.Evict ids.(1) (* dead load: never read *);
      Tr.Compute ids.(2);
      Tr.Store ids.(2);
    ]
  in
  let chk = Tc.check ~cache_size:8 w (Tr.of_list trace) in
  Alcotest.(check int) "zero errors" 0 (Dg.n_errors chk.Tc.report);
  Alcotest.(check int) "one dead load" 1 chk.Tc.dead_loads;
  Alcotest.(check int) "one redundant store" 1 chk.Tc.redundant_stores;
  let dead = find_code chk.Tc.report "dead-load" in
  (* the dead-load warning points at the load step, not the evict *)
  Alcotest.(check bool) "dead load located at load step" true
    (dead.Dg.loc = Dg.Step { step = 2; vertex = Some ids.(1) });
  Alcotest.(check bool) "redundant store present" true
    (has_code chk.Tc.report "redundant-store");
  (* hygiene findings are Lint severity: they never fail `fmmlab
     analyze` on their own, only under --max-warnings *)
  Alcotest.(check int) "two lints" 2 (Dg.n_lints chk.Tc.report);
  Alcotest.(check int) "zero warnings" 0 (Dg.n_warnings chk.Tc.report);
  Alcotest.(check bool) "dead-load severity is Lint" true
    (dead.Dg.severity = Dg.Lint);
  Alcotest.(check bool) "redundant-store severity is Lint" true
    ((find_code chk.Tc.report "redundant-store").Dg.severity = Dg.Lint);
  Alcotest.(check bool) "lint severity round-trips" true
    (Dg.severity_of_string (Dg.severity_to_string Dg.Lint) = Some Dg.Lint)

let test_trace_illegal_message_has_step () =
  (* satellite: the dynamic oracle names step and vertex too *)
  let trace = lru_trace 16 in
  let corrupted = List.filteri (fun i _ -> i <> 4) trace in
  match
    CM.replay { CM.cache_size = 16; allow_recompute = true } w4 (Tr.of_list corrupted)
  with
  | _ -> Alcotest.fail "expected Illegal"
  | exception CM.Illegal msg ->
    Alcotest.(check bool)
      (Printf.sprintf "message %S names a step" msg)
      true (contains msg "step ");
    Alcotest.(check bool)
      (Printf.sprintf "message %S names a vertex" msg)
      true (contains msg "vertex ")

(* --- parallel race detector --- *)

let test_par_clean_bfs () =
  let assignment = PE.bfs_assignment cdag8 ~depth:1 ~procs:7 in
  let r = Pc.check w8 ~procs:7 ~assignment in
  Alcotest.(check int) "zero errors" 0 (Dg.n_errors r.Pc.report);
  Alcotest.(check int) "zero races" 0 r.Pc.races;
  (* word census agrees with the executing model *)
  let dyn = PE.run w8 ~procs:7 ~assignment in
  Alcotest.(check int) "words agree with Par_exec" dyn.PE.total_words
    r.Pc.total_words;
  (* ownership counts cover the graph *)
  Alcotest.(check int) "ownership partition" (W.n_vertices w8)
    (Array.fold_left ( + ) 0 r.Pc.owned)

let test_par_out_of_range () =
  let assignment = PE.bfs_assignment cdag4 ~depth:1 ~procs:7 in
  assignment.(10) <- 99;
  let r = Pc.check w4 ~procs:7 ~assignment in
  let d = find_code r.Pc.report "out-of-range" in
  Alcotest.(check bool) "located at vertex 10" true (d.Dg.loc = Dg.Vertex 10)

let test_par_unowned () =
  let assignment = PE.bfs_assignment cdag4 ~depth:1 ~procs:7 in
  assignment.(3) <- -1;
  let r = Pc.check w4 ~procs:7 ~assignment in
  let d = find_code r.Pc.report "unowned" in
  Alcotest.(check bool) "located at vertex 3" true (d.Dg.loc = Dg.Vertex 3)

let test_par_shape_mismatch () =
  let r = Pc.check w4 ~procs:2 ~assignment:[| 0; 1 |] in
  Alcotest.(check bool) "shape error" true (has_code r.Pc.report "shape")

let test_par_race_on_order_violation () =
  (* swap a cross-processor producer behind its consumer *)
  let assignment = PE.bfs_assignment cdag8 ~depth:1 ~procs:7 in
  let base =
    match D.topo_sort (Cd.graph cdag8) with
    | Some o -> List.filter (fun v -> not (W.is_input w8 v)) o
    | None -> Alcotest.fail "cycle"
  in
  let cross = ref None in
  List.iter
    (fun v ->
      if !cross = None && not (W.is_input w8 v) then
        List.iter
          (fun u ->
            if
              !cross = None
              && (not (W.is_input w8 u))
              && assignment.(u) <> assignment.(v)
            then cross := Some (u, v))
          (D.in_neighbors (Cd.graph cdag8) v))
    base;
  let u, v = Option.get !cross in
  let order =
    List.map (fun x -> if x = u then v else if x = v then u else x) base
  in
  let r = Pc.check ~order w8 ~procs:7 ~assignment in
  Alcotest.(check bool) "at least one race" true (r.Pc.races >= 1);
  let d = find_code r.Pc.report "race" in
  Alcotest.(check bool) "race located at the edge" true
    (d.Dg.loc = Dg.Edge { src = u; dst = v })

let test_par_reassignment_races_phased_order () =
  (* pipeline DAG: in -> x -> y -> out-z; processor 0 runs first, then
     processor 1 (phased order). Owners x,y on p0, z on p1: clean.
     Reassigning x cross-processor to p1 makes p0's y read x before
     p1's phase has sent it: a read-before-send race. *)
  let g = D.create () in
  let ids = D.add_vertices g 4 in
  D.add_edge g ids.(0) ids.(1);
  (* in -> x *)
  D.add_edge g ids.(1) ids.(2);
  (* x -> y *)
  D.add_edge g ids.(2) ids.(3);
  (* y -> z *)
  let w = W.make ~graph:g ~inputs:[| ids.(0) |] ~outputs:[| ids.(3) |] () in
  let assignment = [| 0; 0; 0; 1 |] in
  let order = Pc.phased_order w ~procs:2 ~assignment in
  let r = Pc.check ~order w ~procs:2 ~assignment in
  Alcotest.(check int) "pipeline clean" 0 (Dg.n_errors r.Pc.report);
  (* corrupt: reassign the producer x to the later processor *)
  let assignment' = [| 0; 1; 0; 1 |] in
  let order' = Pc.phased_order w ~procs:2 ~assignment:assignment' in
  let r' = Pc.check ~order:order' w ~procs:2 ~assignment:assignment' in
  Alcotest.(check bool) "race detected" true (r'.Pc.races >= 1);
  let d = find_code r'.Pc.report "race" in
  Alcotest.(check bool) "race on the reassigned edge" true
    (d.Dg.loc = Dg.Edge { src = ids.(1); dst = ids.(2) })

let test_par_never_scheduled () =
  let assignment = PE.bfs_assignment cdag4 ~depth:1 ~procs:7 in
  let base =
    match D.topo_sort (Cd.graph cdag4) with
    | Some o -> List.filter (fun v -> not (W.is_input w4 v)) o
    | None -> Alcotest.fail "cycle"
  in
  let dropped = List.nth base (List.length base - 1) in
  let order = List.filter (fun v -> v <> dropped) base in
  let r = Pc.check ~order w4 ~procs:7 ~assignment in
  Alcotest.(check bool) "never-scheduled reported" true
    (has_code r.Pc.report "never-scheduled")

let test_par_imbalance_warning () =
  (* all vertices on processor 0 of 4: gross imbalance, no errors *)
  let assignment = Array.make (W.n_vertices w4) 0 in
  let r = Pc.check w4 ~procs:4 ~assignment in
  Alcotest.(check bool) "imbalance warned" true
    (has_code r.Pc.report "ownership-imbalance");
  Alcotest.(check int) "no errors" 0 (Dg.n_errors r.Pc.report)

let () =
  Alcotest.run "fmm_analysis"
    [
      ( "diagnostic",
        [ Alcotest.test_case "rendering" `Quick test_report_rendering ] );
      ( "cdag_lint",
        [
          Alcotest.test_case "clean CDAGs" `Quick test_lint_clean;
          Alcotest.test_case "edge removed" `Quick test_lint_edge_removed;
          Alcotest.test_case "illegal edge" `Quick test_lint_extra_edge;
          Alcotest.test_case "workload hygiene" `Quick
            test_lint_workload_hygiene;
        ] );
      ( "trace_check",
        [
          Alcotest.test_case "clean schedulers" `Quick
            test_trace_clean_schedulers;
          Alcotest.test_case "recompute attribution" `Quick
            test_trace_recompute_attribution;
          Alcotest.test_case "missing load" `Quick test_trace_missing_load;
          Alcotest.test_case "cache overflow" `Quick test_trace_overflow;
          Alcotest.test_case "missing final store" `Quick
            test_trace_missing_final_store;
          Alcotest.test_case "output never computed" `Quick
            test_trace_output_never_computed;
          Alcotest.test_case "collects all violations" `Quick
            test_trace_collects_all_violations;
          Alcotest.test_case "dead load / redundant store" `Quick
            test_trace_warnings;
          Alcotest.test_case "Illegal names step+vertex" `Quick
            test_trace_illegal_message_has_step;
        ] );
      ( "par_check",
        [
          Alcotest.test_case "clean BFS partition" `Quick test_par_clean_bfs;
          Alcotest.test_case "out of range" `Quick test_par_out_of_range;
          Alcotest.test_case "unowned" `Quick test_par_unowned;
          Alcotest.test_case "shape mismatch" `Quick test_par_shape_mismatch;
          Alcotest.test_case "race on order violation" `Quick
            test_par_race_on_order_violation;
          Alcotest.test_case "cross-processor reassignment races" `Quick
            test_par_reassignment_races_phased_order;
          Alcotest.test_case "never scheduled" `Quick test_par_never_scheduled;
          Alcotest.test_case "ownership imbalance" `Quick
            test_par_imbalance_warning;
        ] );
    ]
