(* Tests for Fmm_exec: the float64 kernels (blocked vs naive, recursive
   fast MM vs Apply's flop accounting) and the trace-interpreting
   executor — executed results vs classical MM over Zp / Rat / float64,
   executed counters vs the word-counting simulators (scheduler
   counters AND an independent Cache_machine replay), execution of
   hybrid and optimizer-found schedules, trace-legality rejection, the
   NE1 registry experiment's --jobs byte-identity, and the fmmlab CLI's
   degenerate-config exit-2 contract. *)

module K = Fmm_exec.Kernel
module Ex = Fmm_exec.Executor
module A = Fmm_bilinear.Algorithm
module S = Fmm_bilinear.Strassen
module Cd = Fmm_cdag.Cdag
module W = Fmm_machine.Workload
module Ord = Fmm_machine.Orders
module Sch = Fmm_machine.Schedulers
module Tr = Fmm_machine.Trace
module CM = Fmm_machine.Cache_machine
module Prng = Fmm_util.Prng
module Exp = Fmm_obs.Experiment
module Sink = Fmm_obs.Sink
module Json = Fmm_obs.Json

(* --- kernels --- *)

let random_mat seed n =
  let rng = Prng.create ~seed in
  K.random rng n

let test_blocked_vs_naive () =
  (* edge cases on purpose: below one micro-tile, below one panel, off
     panel/micro-tile boundaries, above one panel *)
  List.iter
    (fun n ->
      let a = random_mat (2 * n) n and b = random_mat ((2 * n) + 1) n in
      let reference = K.naive_mul a b in
      let err = K.rel_err (K.blocked_mul a b) ~reference in
      Alcotest.(check bool)
        (Printf.sprintf "n=%d blocked ~ naive (err %.2e)" n err)
        true (err <= 1e-13);
      let err32 = K.rel_err (K.blocked_mul ~nb:32 a b) ~reference in
      Alcotest.(check bool)
        (Printf.sprintf "n=%d nb=32 blocked ~ naive" n)
        true (err32 <= 1e-13))
    [ 1; 2; 3; 5; 8; 16; 63; 64; 65; 100; 130 ]

let test_fast_mul_result () =
  List.iter
    (fun (alg, n, cutoff) ->
      let a = random_mat n n and b = random_mat (n + 7) n in
      let reference = K.naive_mul a b in
      let c, _ = K.fast_mul ~cutoff alg a b in
      let err = K.rel_err c ~reference in
      Alcotest.(check bool)
        (Printf.sprintf "%s n=%d cutoff=%d fast ~ naive (err %.2e)"
           (A.name alg) n cutoff err)
        true (err <= 1e-12))
    [
      (S.strassen, 32, 8);
      (S.strassen, 64, 16);
      (S.winograd, 32, 4);
      (S.classical_2x2, 16, 2);
      (* not powers of the base dimension: the unified cutoff rule
         falls back to classical multiplication mid-recursion instead
         of raising *)
      (S.strassen, 12, 1);
      (S.strassen, 9, 1);
      (S.winograd, 24, 2);
    ]

(* fast_mul mirrors Apply.multiply's recursion guard and combine
   accounting exactly, so its flop counters must equal Apply_int's for
   the same algorithm and cutoff — the executor's arithmetic really is
   the algorithm the CDAG encodes. *)
let test_fast_mul_flops_vs_apply () =
  List.iter
    (fun (alg, n, cutoff) ->
      let rng = Prng.create ~seed:(100 + n) in
      let mi = Fmm_matrix.Matrix.I.random ~rng ~rows:n ~cols:n ~range:5 in
      let mi' = Fmm_matrix.Matrix.I.random ~rng ~rows:n ~cols:n ~range:5 in
      let _, apply = A.Apply_int.multiply ~cutoff alg mi mi' in
      let a = random_mat n n and b = random_mat (n + 1) n in
      let _, fl = K.fast_mul ~cutoff alg a b in
      Alcotest.(check int)
        (Printf.sprintf "%s n=%d cutoff=%d mults" (A.name alg) n cutoff)
        apply.A.Apply_int.mults fl.K.mults;
      Alcotest.(check int)
        (Printf.sprintf "%s n=%d cutoff=%d adds" (A.name alg) n cutoff)
        apply.A.Apply_int.adds fl.K.adds)
    [
      (S.strassen, 32, 8);
      (S.strassen, 16, 1);
      (S.winograd, 32, 4);
      (S.classical_2x2, 16, 4);
      (* the two implementations must agree on the classical fallback
         at sizes that are not powers of the base dimension too *)
      (S.strassen, 12, 1);
      (S.strassen, 9, 1);
      (S.winograd, 24, 2);
    ]

(* --- the executor: results and counters, all backends --- *)

let test_verify_all_policies () =
  List.iter
    (fun (alg, n, m) ->
      List.iter
        (fun policy ->
          let v =
            Ex.verify ~seed:3 ~backends:[ `F64; `Zp; `Rat; `Big ] alg ~n
              ~cache_size:m ~policy
          in
          Alcotest.(check bool)
            (Printf.sprintf "%s n=%d M=%d %s: all backends ok" (A.name alg) n
               m (Ex.policy_to_string policy))
            true (Ex.verification_ok v);
          List.iter
            (fun r ->
              Alcotest.(check bool)
                (r.Ex.backend ^ " within fast-memory budget")
                true
                (r.Ex.peak_occupancy <= m))
            v.Ex.reports)
        Ex.all_policies)
    [ (S.strassen, 8, 32); (S.winograd, 8, 32); (S.strassen, 16, 64) ]

(* independent counter cross-check: the engine's recount must also
   equal what Cache_machine.replay says about the same trace *)
let test_counters_vs_cache_machine () =
  let alg = S.strassen and n = 8 and m = 32 in
  let cdag = Cd.build alg ~n in
  let workn = W.of_cdag cdag in
  List.iter
    (fun policy ->
      let sched = Ex.schedule cdag ~cache_size:m policy in
      let allow_recompute = policy = Ex.Remat in
      let replayed =
        CM.replay { CM.cache_size = m; allow_recompute } workn
          sched.Sch.trace
      in
      let r = Ex.run_backend cdag ~cache_size:m ~sched ~seed:5 `Zp in
      Alcotest.(check bool)
        (Ex.policy_to_string policy ^ ": executed = replayed counters")
        true
        (r.Ex.executed = replayed);
      Alcotest.(check bool)
        (Ex.policy_to_string policy ^ ": executed = scheduled counters")
        true r.Ex.counters_ok)
    Ex.all_policies

let test_hybrid_and_optimizer_schedules () =
  let alg = S.strassen and n = 8 and m = 32 in
  let cdag = Cd.build alg ~n in
  let workn = W.of_cdag cdag in
  let order = Ord.recursive_dfs cdag in
  (* a genuine per-value mix *)
  let hybrid =
    Sch.run_hybrid workn ~cache_size:m ~recompute:(fun v -> v mod 3 = 0) order
  in
  let vh =
    Ex.verify_sched ~seed:9 ~backends:[ `F64; `Zp; `Rat ] cdag ~cache_size:m
      ~policy_name:"hybrid" hybrid
  in
  Alcotest.(check bool) "hybrid executes clean" true (Ex.verification_ok vh);
  (* the optimizer's best found schedule is just another trace *)
  let module O = Fmm_opt.Optimizer in
  let report =
    O.optimize_cdag cdag ~cache_size:m ~beam:2 ~iters:1 ~seed:1 ~jobs:1
  in
  let vo =
    Ex.verify_sched ~seed:9 ~backends:[ `F64; `Zp ] cdag ~cache_size:m
      ~policy_name:"optimizer" report.O.best.O.result
  in
  Alcotest.(check bool) "optimizer schedule executes clean" true
    (Ex.verification_ok vo)

(* determinism: same seed -> byte-identical report, different seed ->
   different operands but still clean *)
let test_seeded_determinism () =
  let v1 = Ex.verify ~seed:11 S.strassen ~n:8 ~cache_size:32 ~policy:Ex.Lru in
  let v2 = Ex.verify ~seed:11 S.strassen ~n:8 ~cache_size:32 ~policy:Ex.Lru in
  Alcotest.(check bool) "same seed, structurally equal" true (v1 = v2);
  let v3 = Ex.verify ~seed:12 S.strassen ~n:8 ~cache_size:32 ~policy:Ex.Lru in
  Alcotest.(check bool) "different seed still clean" true
    (Ex.verification_ok v3)

(* --- trace legality: the executor is also a checker --- *)

let test_rejects_corrupt_traces () =
  let alg = S.strassen and n = 4 and m = 16 in
  let cdag = Cd.build alg ~n in
  let sched = Ex.schedule cdag ~cache_size:m Ex.Lru in
  let a = Array.init (n * n) float_of_int in
  let b = Array.init (n * n) (fun i -> float_of_int (i + 1)) in
  let run trace = ignore (Ex.F64.run cdag ~cache_size:m ~a ~b trace) in
  (* the pristine trace is fine *)
  run sched.Sch.trace;
  let raises name trace =
    Alcotest.(check bool) name true
      (match run trace with
      | () -> false
      | exception Ex.Exec_error _ -> true)
  in
  (* drop the first load: some compute loses an operand *)
  let dropped = ref false in
  let events = Tr.to_list sched.Sch.trace in
  raises "missing load"
    (Tr.of_list
       (List.filter
          (fun e ->
            match e with
            | Tr.Load _ when not !dropped ->
              dropped := true;
              false
            | _ -> true)
          events));
  (* drop every evict: the fast-memory arena overflows *)
  raises "overflow"
    (Tr.of_list (List.filter (function Tr.Evict _ -> false | _ -> true) events));
  (* too-small word budget for the same trace *)
  Alcotest.(check bool) "shrunk budget" true
    (match
       Ex.F64.run cdag ~cache_size:(m - 1) ~a ~b sched.Sch.trace
     with
    | _ -> false
    | exception Ex.Exec_error _ -> true)

let test_validate_config () =
  let ok ?cutoff alg n = Ex.validate_config ?cutoff alg ~n = Ok () in
  Alcotest.(check bool) "strassen n=8" true (ok S.strassen 8);
  Alcotest.(check bool) "n=1 degenerate" false (ok S.strassen 1);
  Alcotest.(check bool) "n=12 not a power" false (ok S.strassen 12);
  Alcotest.(check bool) "rectangular base" false
    (ok (A.classical ~n:2 ~m:2 ~k:3) 4);
  (* the hybrid cutoff contract *)
  Alcotest.(check bool) "cutoff=4 ok" true (ok ~cutoff:4 S.strassen 8);
  Alcotest.(check bool) "cutoff=n ok" true (ok ~cutoff:8 S.strassen 8);
  Alcotest.(check bool) "cutoff=0 degenerate" false (ok ~cutoff:0 S.strassen 8);
  Alcotest.(check bool) "cutoff>n" false (ok ~cutoff:16 S.strassen 8);
  Alcotest.(check bool) "cutoff not a power" false (ok ~cutoff:3 S.strassen 8)

(* --- NE1 report byte-identity at --jobs 1 vs 4 --- *)

let test_ne1_jobs_invariant () =
  let es =
    List.filter
      (fun e -> Exp.id e = "NE1")
      (Fmm_experiments.Experiments.all ())
  in
  Alcotest.(check int) "NE1 registered" 1 (List.length es);
  let render outcomes =
    Json.to_string ~indent:2
      (Sink.report_to_json ~generator:"test_exec" ~created:0.
         (List.map Sink.strip_volatile outcomes))
  in
  let seq = Fmm_experiments.Experiments.run_selected ~jobs:1 es in
  let par = Fmm_experiments.Experiments.run_selected ~jobs:4 es in
  Alcotest.(check string) "NE1 byte-identical at jobs 1 vs 4" (render seq)
    (render par)

(* --- the CLI's exit-2 contract for degenerate configs --- *)

let fmmlab_exe =
  (* the (deps ../bin/fmmlab.exe) in test/dune puts the freshly built
     binary at this path relative to the test's cwd *)
  Filename.concat (Filename.concat ".." "bin") "fmmlab.exe"

let run_cli ?(out = "/dev/null") args =
  let cmd =
    Printf.sprintf "%s %s >%s 2>&1" (Filename.quote fmmlab_exe) args (Filename.quote out)
  in
  match Unix.system cmd with
  | Unix.WEXITED c -> c
  | Unix.WSIGNALED _ | Unix.WSTOPPED _ -> 255

let test_cli_degenerate_exit2 () =
  if not (Sys.file_exists fmmlab_exe) then
    (* guard for odd cwd layouts; dune's deps make this unreachable *)
    Alcotest.skip ()
  else begin
    List.iter
      (fun args ->
        Alcotest.(check int) ("exit 2: " ^ args) 2 (run_cli args))
      [
        "exec -a Strassen -n 1 -m 64";
        "exec -a Strassen -n 12 -m 64";
        "exec -a \"classical <2,2,3;12>\" -n 4 -m 64";
        "exec -a Strassen -n 8 -m 32 --policy nosuch";
        "exec -a Strassen -n 8 -m 32 --backend nosuch";
        "census -a Strassen -n 1";
        "census -a \"classical <2,2,3;12>\" -n 4";
        (* the edge count overflows a 63-bit int *)
        "census -a Strassen -n 2097152";
        (* hybrid cutoff contract: 0, > n and non-powers of the base
           dimension are degenerate for CDAG-building commands *)
        "exec -a Strassen -n 8 -m 32 --cutoff 0";
        "exec -a Strassen -n 8 -m 32 --cutoff 16";
        "exec -a Strassen -n 8 -m 32 --cutoff 3";
        "census -a Strassen -n 8 --cutoff 3";
        "census -a Strassen -n 8 --cutoff 16";
        "hybrid -a Strassen -n 8 -m 64 --cutoff 3";
        (* a cache too small for the policy's schedule, found by running
           it: remat needs more than LRU at the same n *)
        "simulate -n 16 -m 4";
        "simulate -n 16 -m 8 --remat";
        "analyze -n 8 -m 4";
        "exec -a Strassen -n 16 -m 5 --policy remat";
        "census -a Strassen -n 16 -m 2 --analyze";
        (* no cache at all: the scheduler core refuses the first step *)
        "census -a Strassen -n 8 -m 0 --analyze";
        "optimize -n 8 -m 4";
        "fft -n 16 -m 2";
      ];
    (* and healthy runs still exit 0 *)
    Alcotest.(check int) "exit 0: healthy exec" 0
      (run_cli "exec -a Strassen -n 8 -m 32 --backend zp65537");
    Alcotest.(check int) "exit 0: healthy hybrid exec" 0
      (run_cli "exec -a Strassen -n 8 -m 32 --cutoff 4 --backend zp65537");
    Alcotest.(check int) "exit 0: healthy hybrid census" 0
      (run_cli "census -a Strassen -n 8 --cutoff 4");
    (* a BFS depth beyond the recursion falls back to round-robin *)
    Alcotest.(check int) "exit 0: cosma deeper than the CDAG" 0
      (run_cli "cosma -n 4 -p 60");
    (* a cache far larger than the CDAG: the schedulers' state is sized
       by the vertices, not by the cache *)
    List.iter
      (fun args -> Alcotest.(check int) ("exit 0: " ^ args) 0 (run_cli args))
      [ "census -a Strassen -n 16 -m 1099511627776 --analyze"; "simulate -n 8 -m 1099511627776" ]
  end

let with_temp f =
  let path = Filename.temp_file "fmmlab" ".txt" in
  Fun.protect ~finally:(fun () -> Sys.remove path) (fun () -> f path)

let read_file path = In_channel.with_open_bin path In_channel.input_all

let contains s sub =
  let n = String.length sub in
  let rec go i = i + n <= String.length s && (String.sub s i n = sub || go (i + 1)) in
  go 0

(* hybrid censuses stream the implicit core: lint, MAXLIVE and the
   segment analysis all run, and the lint is clean *)
let test_cli_hybrid_census () =
  if not (Sys.file_exists fmmlab_exe) then Alcotest.skip ();
  with_temp (fun out ->
      let args = "census -a Strassen -n 16 --cutoff 8 --lint --maxlive --analyze" in
      Alcotest.(check int) ("exit 0: " ^ args) 0
        (run_cli ~out args);
      let text = read_file out in
      Alcotest.(check bool) "zero lint errors" true
        (contains text "implicit lint: 0 error(s)");
      Alcotest.(check bool) "MAXLIVE reported" true (contains text "MAXLIVE =");
      Alcotest.(check bool) "segments reported" true (contains text "Lemma 3.6 holds"))

(* the largest Strassen census whose counts fit an int: its ids reach
   5.6e17, and the sampled lint queries them across the whole range *)
let test_cli_full_range_census () =
  if not (Sys.file_exists fmmlab_exe) then Alcotest.skip ();
  with_temp (fun out ->
      let args = "census -a Strassen -n 1048576 --lint" in
      Alcotest.(check int) ("exit 0: " ^ args) 0 (run_cli ~out args);
      Alcotest.(check bool) "zero lint errors" true
        (contains (read_file out) "implicit lint: 0 error(s)"))

(* the baseline gate compares counts exactly: one tampered Int metric
   of an RC report exits 1 and names the metric *)
let test_cli_baseline_exact_counts () =
  let module Json = Fmm_obs.Json in
  let module Sink = Fmm_obs.Sink in
  let module M = Fmm_obs.Metrics in
  if not (Sys.file_exists fmmlab_exe) then Alcotest.skip ();
  with_temp (fun report ->
      with_temp (fun tampered ->
          Alcotest.(check int) "exit 0: write RC report" 0
            (run_cli ("bench --filter RC --quiet --json " ^ Filename.quote report));
          let outcomes =
            match Sink.outcomes_of_json (Json.of_file report) with
            | Ok o -> o
            | Error msg -> Alcotest.fail msg
          in
          (* bump the first Int metric other than the ratio *)
          let bumped = ref None in
          let bump (k, v) =
            match v with
            | M.Int i when k <> "ratio" && !bumped = None ->
              bumped := Some k;
              (k, M.Int (i + 1))
            | _ -> (k, v)
          in
          let tamper (o : Fmm_obs.Experiment.outcome) =
            {
              o with
              rows = List.map (fun (r : M.row) -> { r with metrics = List.map bump r.metrics }) o.rows;
            }
          in
          Json.to_file tampered (Sink.report_to_json ~created:0. (List.map tamper outcomes));
          let metric = match !bumped with Some k -> k | None -> Alcotest.fail "no Int metric in RC" in
          with_temp (fun out ->
              Alcotest.(check int) "exit 1: tampered count" 1
                (run_cli ~out ("bench --filter RC --quiet --baseline " ^ Filename.quote tampered));
              let text = read_file out in
              Alcotest.(check bool) "REGRESSION names the metric" true
                (contains text "REGRESSION" && contains text (metric ^ " ") && contains text "(exact)"))))

(* the baseline gate fails closed: a row the baseline lacks exits 1 *)
let test_cli_baseline_fails_closed () =
  let module Json = Fmm_obs.Json in
  let module Sink = Fmm_obs.Sink in
  if not (Sys.file_exists fmmlab_exe) then Alcotest.skip ();
  with_temp (fun full ->
      with_temp (fun partial ->
          Alcotest.(check int) "exit 0: write T1 report" 0
            (run_cli ("bench --filter T1 --quiet --json " ^ Filename.quote full));
          Alcotest.(check int) "exit 0: T1 against itself" 0
            (run_cli ("bench --filter T1 --quiet --baseline " ^ Filename.quote full));
          let outcomes =
            match Sink.outcomes_of_json (Json.of_file full) with
            | Ok o -> o
            | Error msg -> Alcotest.fail msg
          in
          let drop_last_row (o : Fmm_obs.Experiment.outcome) =
            let rows = o.Fmm_obs.Experiment.rows in
            { o with rows = List.filteri (fun k _ -> k < List.length rows - 1) rows }
          in
          Json.to_file partial
            (Sink.report_to_json ~created:0. (List.map drop_last_row outcomes));
          Alcotest.(check int) "exit 1: T1 row missing from the baseline" 1
            (run_cli ("bench --filter T1 --quiet --baseline " ^ Filename.quote partial));
          (* and so does an experiment it lacks, though F1 has no ratio row *)
          with_temp (fun out ->
              Alcotest.(check int) "exit 1: F1 missing from a T1 baseline" 1
                (run_cli ~out ("bench --filter F1 --quiet --baseline " ^ Filename.quote full));
              Alcotest.(check bool) "UNMATCHED names F1" true
                (contains (read_file out) "UNMATCHED F1"))))

let () =
  Alcotest.run "fmm_exec"
    [
      ( "kernel",
        [
          Alcotest.test_case "blocked vs naive" `Quick test_blocked_vs_naive;
          Alcotest.test_case "fast_mul result" `Quick test_fast_mul_result;
          Alcotest.test_case "fast_mul flops = Apply" `Quick
            test_fast_mul_flops_vs_apply;
        ] );
      ( "executor",
        [
          Alcotest.test_case "all policies x all backends" `Quick
            test_verify_all_policies;
          Alcotest.test_case "counters vs cache machine" `Quick
            test_counters_vs_cache_machine;
          Alcotest.test_case "hybrid + optimizer schedules" `Quick
            test_hybrid_and_optimizer_schedules;
          Alcotest.test_case "seeded determinism" `Quick
            test_seeded_determinism;
          Alcotest.test_case "rejects corrupt traces" `Quick
            test_rejects_corrupt_traces;
          Alcotest.test_case "validate_config" `Quick test_validate_config;
        ] );
      ( "registry",
        [
          Alcotest.test_case "NE1 jobs-invariant" `Quick
            test_ne1_jobs_invariant;
        ] );
      ( "cli",
        [
          Alcotest.test_case "degenerate configs exit 2" `Quick
            test_cli_degenerate_exit2;
          Alcotest.test_case "hybrid census streams" `Quick test_cli_hybrid_census;
          Alcotest.test_case "full id range census" `Quick test_cli_full_range_census;
          Alcotest.test_case "baseline gate fails closed" `Quick
            test_cli_baseline_fails_closed;
          Alcotest.test_case "baseline gate exact counts" `Quick
            test_cli_baseline_exact_counts;
        ] );
    ]
