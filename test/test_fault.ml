(* Tests for fmm_fault (crash injection + recovery) and the Pool retry
   layer that backs it. The load-bearing invariants:

   - zero failures is the plain executor: every policy reproduces
     Par_exec.run's per-processor census EXACTLY (and run_limited with
     unbounded memory agrees — the fault path must not perturb the
     fault-free one);
   - every recovered run is a valid execution: the replay checker
     (Par_check.check_log) finds no read-before-send violation and no
     lost output, for every policy and failure load;
   - determinism: the failure schedule and the whole report are pure
     functions of the seed — byte-for-byte reproducible;
   - Pool.map ~retries re-runs Transient crashes a bounded number of
     times and keeps the first-index re-raise contract. *)

module Cd = Fmm_cdag.Cdag
module S = Fmm_bilinear.Strassen
module W = Fmm_machine.Workload
module PE = Fmm_machine.Par_exec
module Sim = Fmm_fault.Sim
module Dg = Fmm_analysis.Diagnostic
module Pc = Fmm_analysis.Par_check
module Pool = Fmm_par.Pool
module G = Fmm_sched.Generator

let cdag16 = Cd.build S.strassen ~n:16
let w16 = W.of_cdag cdag16

let setup ~depth ~procs =
  let assignment = PE.bfs_assignment cdag16 ~depth ~procs in
  (w16, assignment)

let steps_of w =
  W.n_vertices w - Array.length (W.inputs w)

let all_policies = [ Sim.Recompute_local; Sim.Refetch_owner; Sim.Replicate 2 ]

(* --- fault-free parity --- *)

let test_zero_failures_parity () =
  (* acceptance gate: fail = 0 reproduces run AND run_limited(max_int)
     counters exactly, per processor, on BFS Strassen n=16 depth 2 *)
  let procs = 49 in
  let w, assignment = setup ~depth:2 ~procs in
  let base = PE.run w ~procs ~assignment in
  let lim = PE.run_limited w ~procs ~assignment ~local_memory:max_int in
  List.iter
    (fun policy ->
      let r = Sim.simulate w ~procs ~assignment ~policy ~fail:0 ~seed:1 () in
      let name = Sim.policy_name policy in
      Alcotest.(check (array int)) (name ^ " sent = run") base.PE.sent r.Sim.sent;
      Alcotest.(check (array int))
        (name ^ " received = run") base.PE.received r.Sim.received;
      Alcotest.(check int) (name ^ " total = run") base.PE.total_words r.Sim.total_words;
      Alcotest.(check int)
        (name ^ " total = run_limited") lim.PE.total_words r.Sim.total_words;
      Alcotest.(check int) (name ^ " max = run") base.PE.max_words r.Sim.max_words;
      Alcotest.(check int) (name ^ " no recovery traffic") 0 r.Sim.recovery_words;
      Alcotest.(check int) (name ^ " nothing recomputed") 0 r.Sim.recomputed;
      Alcotest.(check (float 0.)) (name ^ " overhead 1.0") 1.0 r.Sim.overhead_total)
    [ Sim.Recompute_local; Sim.Refetch_owner; Sim.Replicate 1 ]

let test_replicate_pays_up_front () =
  (* Replicate k > 1 pushes each computed word to k-1 replicas even on
     a fault-free run: exactly (k-1) * steps replication words on top
     of the baseline *)
  let procs = 7 in
  let w, assignment = setup ~depth:1 ~procs in
  let base = PE.run w ~procs ~assignment in
  let steps = steps_of w in
  List.iter
    (fun k ->
      let r =
        Sim.simulate w ~procs ~assignment ~policy:(Sim.Replicate k) ~fail:0
          ~seed:1 ()
      in
      Alcotest.(check int)
        (Printf.sprintf "k=%d replication words" k)
        ((k - 1) * steps) r.Sim.replication_words;
      (* replicas already hold the pushed copies, so replication can
         only SAVE ordinary fetches: the non-replication residue is at
         most the fault-free census (equal when k = 1) *)
      let ordinary = r.Sim.total_words - r.Sim.replication_words in
      Alcotest.(check bool)
        (Printf.sprintf "k=%d ordinary traffic <= fault-free" k)
        true
        (ordinary <= base.PE.total_words);
      if k = 1 then
        Alcotest.(check int) "k=1 is plain ownership" base.PE.total_words
          r.Sim.total_words)
    [ 1; 2; 3 ]

(* --- recovered runs are valid executions --- *)

let valid_replay name w r =
  let replay = Sim.check w r in
  Alcotest.(check int) (name ^ " replay errors") 0 (Dg.n_errors replay.Pc.report);
  Alcotest.(check int) (name ^ " lost outputs") 0 replay.Pc.lost_outputs;
  replay

let test_recovered_runs_valid () =
  let procs = 7 in
  let w, assignment = setup ~depth:1 ~procs in
  List.iter
    (fun policy ->
      List.iter
        (fun fail ->
          let name = Printf.sprintf "%s fail=%d" (Sim.policy_name policy) fail in
          let r = Sim.simulate w ~procs ~assignment ~policy ~fail ~seed:7 () in
          let replay = valid_replay name w r in
          Alcotest.(check int)
            (name ^ " crash count replayed") fail replay.Pc.crashes;
          (* recovery never undercuts the fault-free run: the fault-free
             transfers all still happen (possibly more than once) *)
          Alcotest.(check bool)
            (name ^ " overhead >= 1") true
            (r.Sim.overhead_total >= 1.0))
        [ 1; 2; 5; 9 ])
    all_policies

let test_deep_partition_valid () =
  (* depth-2 partition (49 processors), heavier failure load *)
  let procs = 49 in
  let w, assignment = setup ~depth:2 ~procs in
  List.iter
    (fun policy ->
      let name = Sim.policy_name policy ^ " depth2" in
      let r = Sim.simulate w ~procs ~assignment ~policy ~fail:12 ~seed:13 () in
      ignore (valid_replay name w r))
    all_policies

let test_generated_assignments_valid () =
  (* the recovery machinery (in particular Refetch_owner's ascending
     smallest-id surviving-holder scan) must stay deterministic and
     replay-clean on generated assignments — contiguous order splits
     and (p1, p2, p3) grids — whose ownership is neither BFS-shaped nor
     contiguous in vertex id *)
  let split =
    G.split_order w16 ~procs:7
      (Array.of_list (Fmm_machine.Orders.recursive_dfs cdag16))
  in
  let classical = Cd.build S.strassen ~n:8 ~cutoff:8 in
  let wc = W.of_cdag classical in
  let _, _, _, grid_asg = G.grid_search classical ~procs:8 in
  List.iter
    (fun (tag, w, procs, assignment) ->
      List.iter
        (fun policy ->
          List.iter
            (fun fail ->
              let name =
                Printf.sprintf "%s %s fail=%d" tag (Sim.policy_name policy)
                  fail
              in
              let r =
                Sim.simulate w ~procs ~assignment ~policy ~fail ~seed:11 ()
              in
              ignore (valid_replay name w r);
              (* byte-identical repeat: the whole report is a pure
                 function of (workload, assignment, policy, fail, seed) *)
              let r2 =
                Sim.simulate w ~procs ~assignment ~policy ~fail ~seed:11 ()
              in
              Alcotest.(check bool) (name ^ " deterministic") true (r = r2))
            [ 1; 2; 4 ])
        all_policies)
    [
      ("split", w16, 7, split.G.assignment);
      ("grid", wc, 8, grid_asg);
    ]

let test_bound_ratio () =
  let procs = 7 in
  let w, assignment = setup ~depth:1 ~procs in
  let bound = 100.0 in
  let r =
    Sim.simulate w ~procs ~assignment ~policy:Sim.Recompute_local ~fail:2
      ~seed:5 ~bound ()
  in
  (match r.Sim.bound_ratio with
  | None -> Alcotest.fail "bound_ratio missing"
  | Some x ->
    Alcotest.(check (float 1e-9)) "ratio" (float_of_int r.Sim.max_words /. bound) x);
  let r0 =
    Sim.simulate w ~procs ~assignment ~policy:Sim.Recompute_local ~fail:2
      ~seed:5 ()
  in
  Alcotest.(check bool) "no bound, no ratio" true (r0.Sim.bound_ratio = None)

(* --- determinism --- *)

let test_schedule_deterministic () =
  let a = Sim.derive_failures ~procs:7 ~steps:500 ~fail:6 ~seed:42 in
  let b = Sim.derive_failures ~procs:7 ~steps:500 ~fail:6 ~seed:42 in
  Alcotest.(check bool) "same schedule" true (a = b);
  Alcotest.(check int) "six events" 6 (List.length a);
  List.iter
    (fun e ->
      Alcotest.(check bool) "proc in range" true (e.Sim.proc >= 0 && e.Sim.proc < 7);
      Alcotest.(check bool) "step in range" true (e.Sim.step >= 0 && e.Sim.step < 500))
    a;
  let sorted = List.sort (fun x y -> compare (x.Sim.step, x.Sim.proc) (y.Sim.step, y.Sim.proc)) a in
  Alcotest.(check bool) "sorted by (step, proc)" true (a = sorted);
  (* per-index independent streams: growing the failure count never
     perturbs the events already drawn *)
  let small = Sim.derive_failures ~procs:7 ~steps:500 ~fail:3 ~seed:42 in
  List.iter
    (fun e -> Alcotest.(check bool) "fail=3 subset of fail=6" true (List.mem e a))
    small;
  Alcotest.(check (list reject)) "empty on zero steps" []
    (Sim.derive_failures ~procs:7 ~steps:0 ~fail:4 ~seed:1)

let test_report_deterministic () =
  let procs = 7 in
  let w, assignment = setup ~depth:1 ~procs in
  List.iter
    (fun policy ->
      let r () = Sim.simulate w ~procs ~assignment ~policy ~fail:4 ~seed:99 () in
      Alcotest.(check bool)
        (Sim.policy_name policy ^ " structurally equal") true
        (r () = r ()))
    all_policies

(* --- validation --- *)

let test_validation () =
  let procs = 7 in
  let w, assignment = setup ~depth:1 ~procs in
  let steps = steps_of w in
  Alcotest.check_raises "replicate 0"
    (Invalid_argument "Fault.run: Replicate k outside [1, procs]") (fun () ->
      ignore
        (Sim.run w ~procs ~assignment ~policy:(Sim.Replicate 0) ~failures:[] ()));
  Alcotest.check_raises "replicate > procs"
    (Invalid_argument "Fault.run: Replicate k outside [1, procs]") (fun () ->
      ignore
        (Sim.run w ~procs ~assignment ~policy:(Sim.Replicate 8) ~failures:[] ()));
  Alcotest.check_raises "failure proc out of range"
    (Invalid_argument "Fault.run: failure names an invalid processor")
    (fun () ->
      ignore
        (Sim.run w ~procs ~assignment ~policy:Sim.Recompute_local
           ~failures:[ { Sim.proc = 7; step = 0 } ] ()));
  Alcotest.check_raises "failure step out of range"
    (Invalid_argument "Fault.run: failure step outside the sweep") (fun () ->
      ignore
        (Sim.run w ~procs ~assignment ~policy:Sim.Recompute_local
           ~failures:[ { Sim.proc = 0; step = steps } ] ()));
  Alcotest.check_raises "bad assignment"
    (Invalid_argument "Fault.run: assignment length mismatch") (fun () ->
      ignore
        (Sim.run w ~procs ~assignment:[| 0 |] ~policy:Sim.Recompute_local
           ~failures:[] ()))

let test_policy_names () =
  List.iter
    (fun p ->
      Alcotest.(check bool)
        (Sim.policy_name p ^ " round-trips") true
        (Sim.policy_of_string (Sim.policy_name p) = Some p))
    [ Sim.Recompute_local; Sim.Refetch_owner; Sim.Replicate 2; Sim.Replicate 7 ];
  Alcotest.(check bool) "colon form" true
    (Sim.policy_of_string "replicate:3" = Some (Sim.Replicate 3));
  Alcotest.(check bool) "unknown rejected" true (Sim.policy_of_string "rollback" = None);
  Alcotest.(check bool) "bare replicate rejected" true
    (Sim.policy_of_string "replicate-" = None)

(* --- Pool retry semantics --- *)

let test_pool_retry_success_after_transient () =
  (* each task crashes (attempts-1) times then succeeds; with enough
     retries the map is observationally a List.map *)
  List.iter
    (fun jobs ->
      let tries = Hashtbl.create 8 in
      let f x =
        let k = try Hashtbl.find tries x with Not_found -> 0 in
        Hashtbl.replace tries x (k + 1);
        if k < 2 then raise (Pool.Transient "flaky") else x * 10
      in
      (* jobs=1 keeps the counting deterministic; at jobs>1 each task's
         counter is still touched by one domain at a time because tasks
         are claimed exactly once *)
      Alcotest.(check (list int))
        (Printf.sprintf "retries=2 recovers (jobs=%d)" jobs)
        [ 10; 20; 30 ]
        (Pool.map ~retries:2 ~jobs f [ 1; 2; 3 ]);
      Hashtbl.iter
        (fun _ k -> Alcotest.(check int) "three attempts" 3 k)
        tries)
    [ 1; 3 ]

let test_pool_retry_exhausted () =
  (* a task that stays Transient re-raises after 1 + retries attempts,
     and the first-index contract still holds *)
  let attempts = ref 0 in
  let f x =
    if x = 2 then begin
      incr attempts;
      raise (Pool.Transient "always down")
    end
    else x
  in
  Alcotest.check_raises "re-raised after retries" (Pool.Transient "always down")
    (fun () -> ignore (Pool.map ~retries:3 ~jobs:1 f [ 1; 2; 3 ]));
  Alcotest.(check int) "1 + 3 attempts" 4 !attempts

let test_pool_retry_first_index () =
  let f x = if x mod 2 = 0 then raise (Pool.Transient (string_of_int x)) else x in
  List.iter
    (fun jobs ->
      Alcotest.check_raises
        (Printf.sprintf "first failing index at jobs=%d" jobs)
        (Pool.Transient "2")
        (fun () -> ignore (Pool.map ~retries:1 ~jobs f [ 1; 3; 2; 5; 4 ])))
    [ 1; 4 ]

let test_pool_retry_ignores_other_exceptions () =
  (* only Transient is retried: a plain failure propagates immediately *)
  let attempts = ref 0 in
  let f _ =
    incr attempts;
    failwith "hard"
  in
  Alcotest.check_raises "hard failure not retried" (Failure "hard") (fun () ->
      ignore (Pool.map ~retries:5 ~jobs:1 f [ 0 ]));
  Alcotest.(check int) "single attempt" 1 !attempts

let test_pool_retry_validation () =
  Alcotest.check_raises "retries < 0"
    (Invalid_argument "Fmm_par.Pool.map: retries < 0") (fun () ->
      ignore (Pool.map ~retries:(-1) ~jobs:1 (fun x -> x) [ 1 ]))

let () =
  Alcotest.run "fmm_fault"
    [
      ( "parity",
        [
          Alcotest.test_case "zero failures = Par_exec" `Quick
            test_zero_failures_parity;
          Alcotest.test_case "replication up front" `Quick
            test_replicate_pays_up_front;
        ] );
      ( "recovery",
        [
          Alcotest.test_case "recovered runs valid" `Quick
            test_recovered_runs_valid;
          Alcotest.test_case "depth-2 partition" `Quick test_deep_partition_valid;
          Alcotest.test_case "generated assignments" `Quick
            test_generated_assignments_valid;
          Alcotest.test_case "bound ratio" `Quick test_bound_ratio;
        ] );
      ( "determinism",
        [
          Alcotest.test_case "failure schedule" `Quick test_schedule_deterministic;
          Alcotest.test_case "full report" `Quick test_report_deterministic;
        ] );
      ( "validation",
        [
          Alcotest.test_case "argument checks" `Quick test_validation;
          Alcotest.test_case "policy names" `Quick test_policy_names;
        ] );
      ( "pool-retry",
        [
          Alcotest.test_case "recovers after transients" `Quick
            test_pool_retry_success_after_transient;
          Alcotest.test_case "exhausts and re-raises" `Quick
            test_pool_retry_exhausted;
          Alcotest.test_case "first index" `Quick test_pool_retry_first_index;
          Alcotest.test_case "hard failures propagate" `Quick
            test_pool_retry_ignores_other_exceptions;
          Alcotest.test_case "validation" `Quick test_pool_retry_validation;
        ] );
    ]
