(* Tests for fmm_machine: the cache machine's legality rules, order
   validity, the LRU and rematerializing schedulers (every produced
   trace is replayed through the legality oracle), measured-I/O vs
   lower-bound inequalities, the Lemma 3.6 segment analyzer, and the
   parallel cost models. *)

module Cd = Fmm_cdag.Cdag
module CM = Fmm_machine.Cache_machine
module Tr = Fmm_machine.Trace
module Ord = Fmm_machine.Orders
module Sch = Fmm_machine.Schedulers
module Seg = Fmm_machine.Segments
module Par = Fmm_machine.Par_model
module B = Fmm_bounds.Bounds
module S = Fmm_bilinear.Strassen

module W = Fmm_machine.Workload
module Tc = Fmm_analysis.Trace_check
module Apc = Fmm_analysis.Par_check

let cdag2 = Cd.build S.strassen ~n:2
let cdag4 = Cd.build S.strassen ~n:4
let cdag8 = Cd.build S.strassen ~n:8
let w2 = W.of_cdag cdag2
let w4 = W.of_cdag cdag4
let w8 = W.of_cdag cdag8
let wof = W.of_cdag

(* --- cache machine legality --- *)

let cfg m = { CM.cache_size = m; allow_recompute = true }

let test_machine_rejects_illegal () =
  let a0 = (Cd.a_inputs cdag2).(0) in
  let check_illegal name events =
    Alcotest.(check bool) name true
      (try
         ignore (CM.replay (cfg 8) w2 (Tr.of_list events));
         false
       with CM.Illegal _ -> true)
  in
  (* load of something not in slow memory *)
  let non_input =
    (Cd.outputs cdag2).(0)
  in
  check_illegal "load not-in-slow" [ Tr.Load non_input ];
  check_illegal "double load" [ Tr.Load a0; Tr.Load a0 ];
  check_illegal "store not in cache" [ Tr.Store a0 ];
  check_illegal "evict not in cache" [ Tr.Evict a0 ];
  check_illegal "compute without operands" [ Tr.Compute non_input ];
  check_illegal "compute an input" [ Tr.Load a0; Tr.Compute a0 ];
  (* cache overflow *)
  let inputs = Array.to_list (Cd.inputs cdag2) in
  let too_many = List.map (fun v -> Tr.Load v) inputs in
  Alcotest.(check bool) "cache overflow" true
    (try
       ignore (CM.replay (cfg 4) w2 (Tr.of_list too_many));
       false
     with CM.Illegal _ -> true);
  (* empty trace: outputs never computed *)
  check_illegal "missing outputs" []

let test_machine_rejects_recompute_when_disabled () =
  (* compute one encoder vertex (whose operands are inputs) twice *)
  let g = Cd.graph cdag2 in
  let enc =
    List.find
      (fun v -> Cd.role cdag2 v = Cd.Enc_a)
      (List.init (Cd.n_vertices cdag2) (fun i -> i))
  in
  let preds = Fmm_graph.Digraph.in_neighbors g enc in
  let prefix = List.map (fun p -> Tr.Load p) preds in
  let twice = prefix @ [ Tr.Compute enc; Tr.Compute enc ] in
  (* legal with recomputation (up to the final-state check) *)
  let twice = Tr.of_list twice in
  let st = CM.init (cfg 8) w2 in
  Tr.iter_codes (CM.apply st) twice;
  Alcotest.(check int) "one recompute counted" 1 (CM.counters st).Tr.recomputes;
  (* illegal without *)
  let st2 = CM.init { CM.cache_size = 8; allow_recompute = false } w2 in
  Alcotest.(check bool) "rejected without recompute" true
    (try
       Tr.iter_codes (CM.apply st2) twice;
       false
     with CM.Illegal _ -> true)

(* --- orders --- *)

let test_orders_valid () =
  List.iter
    (fun (name, order) ->
      Alcotest.(check bool) (name ^ " valid") true (Ord.is_valid_order cdag4 order))
    [
      ("naive", Ord.naive_topo cdag4);
      ("dfs", Ord.recursive_dfs cdag4);
      ("random", Ord.random_topo ~seed:3 cdag4);
    ]

let test_orders_cover_all_vertices () =
  let expected = Cd.n_vertices cdag8 - Array.length (Cd.inputs cdag8) in
  Alcotest.(check int) "naive count" expected (List.length (Ord.naive_topo cdag8));
  Alcotest.(check int) "dfs count" expected (List.length (Ord.recursive_dfs cdag8));
  Alcotest.(check int) "random count" expected
    (List.length (Ord.random_topo ~seed:1 cdag8))

let test_invalid_order_detected () =
  let order = Ord.naive_topo cdag2 in
  Alcotest.(check bool) "reversed order invalid" false
    (Ord.is_valid_order cdag2 (List.rev order));
  Alcotest.(check bool) "truncated order invalid" false
    (Ord.is_valid_order cdag2 (List.tl order))

(* --- schedulers: every trace must replay legally --- *)

let replayable ?(allow_recompute = true) cdag m (res : Sch.result) =
  let c = CM.replay { CM.cache_size = m; allow_recompute } (wof cdag) res.Sch.trace in
  Alcotest.(check int) "replay loads agree" res.Sch.counters.Tr.loads c.Tr.loads;
  Alcotest.(check int) "replay stores agree" res.Sch.counters.Tr.stores c.Tr.stores;
  (* cross-check: the static analyzer agrees the trace is clean *)
  Alcotest.(check bool) "static checker clean" true
    (Tc.clean ~cache_size:m ~allow_recompute (wof cdag) res.Sch.trace);
  c

let test_lru_legal_and_counts () =
  List.iter
    (fun (cdag, m) ->
      let res = Sch.run_lru (wof cdag) ~cache_size:m (Ord.recursive_dfs cdag) in
      let c = replayable ~allow_recompute:false cdag m res in
      Alcotest.(check int) "no recomputation in LRU run" 0 c.Tr.recomputes;
      (* every non-input vertex computed exactly once *)
      Alcotest.(check int) "computes = vertices"
        (Cd.n_vertices cdag - Array.length (Cd.inputs cdag))
        c.Tr.computes)
    [ (cdag2, 8); (cdag4, 12); (cdag4, 24); (cdag8, 16); (cdag8, 64) ]

let test_lru_io_decreases_with_memory () =
  let io m =
    (Sch.run_lru w8 ~cache_size:m (Ord.recursive_dfs cdag8)).Sch.counters
    |> Tr.io
  in
  let io16 = io 16 and io64 = io 64 and io256 = io 256 in
  Alcotest.(check bool) "io(16) >= io(64)" true (io16 >= io64);
  Alcotest.(check bool) "io(64) >= io(256)" true (io64 >= io256);
  (* with the whole problem in cache: just load inputs + store outputs *)
  let io_big = io 4096 in
  Alcotest.(check int) "compulsory I/O only" (128 + 64) io_big

let test_dfs_beats_naive_locality () =
  let io order = Tr.io (Sch.run_lru w8 ~cache_size:24 order).Sch.counters in
  Alcotest.(check bool) "dfs <= naive" true
    (io (Ord.recursive_dfs cdag8) <= io (Ord.naive_topo cdag8))

let test_lru_respects_lower_bound () =
  (* measured I/O of any legal schedule >= (a constant times) the
     bound; we check measured >= bound with the Omega constant 1/8,
     comfortably below the true constant, and also >= compulsory I/O. *)
  List.iter
    (fun m ->
      let res = Sch.run_lru w8 ~cache_size:m (Ord.recursive_dfs cdag8) in
      let measured = float_of_int (Tr.io res.Sch.counters) in
      let bound = B.fast_sequential ~n:8 ~m () in
      Alcotest.(check bool)
        (Printf.sprintf "M=%d measured %.0f vs bound %.0f" m measured bound)
        true
        (measured >= bound /. 8.))
    [ 12; 16; 32 ]

let test_rematerialize_legal () =
  List.iter
    (fun (cdag, m) ->
      let res = Sch.run_rematerialize (wof cdag) ~cache_size:m (Ord.recursive_dfs cdag) in
      let c = replayable cdag m res in
      ignore c;
      (* intermediates are never stored: stores = number of outputs *)
      Alcotest.(check int) "stores = outputs"
        (Array.length (Cd.outputs cdag))
        res.Sch.counters.Tr.stores)
    [ (cdag2, 10); (cdag4, 24); (cdag8, 80) ]

let test_rematerialize_trades_flops_for_stores () =
  let m = 24 in
  let lru = Sch.run_lru w4 ~cache_size:m (Ord.recursive_dfs cdag4) in
  let rem = Sch.run_rematerialize w4 ~cache_size:m (Ord.recursive_dfs cdag4) in
  (* rematerializing performs at least as many computes... *)
  Alcotest.(check bool) "more computes" true
    (rem.Sch.counters.Tr.computes >= lru.Sch.counters.Tr.computes);
  (* ...and fewer stores (only outputs) *)
  Alcotest.(check bool) "fewer stores" true
    (rem.Sch.counters.Tr.stores <= lru.Sch.counters.Tr.stores)

let test_rematerialize_still_respects_bound () =
  (* the headline: even the aggressive recomputation schedule cannot
     beat the Theorem 1.1 bound (checked with constant 1/8). *)
  List.iter
    (fun m ->
      let res = Sch.run_rematerialize w8 ~cache_size:m (Ord.recursive_dfs cdag8) in
      let measured = float_of_int (Tr.io res.Sch.counters) in
      let bound = B.fast_sequential ~n:8 ~m () in
      Alcotest.(check bool)
        (Printf.sprintf "M=%d: remat %.0f >= bound/8 %.1f" m measured (bound /. 8.))
        true
        (measured >= bound /. 8.))
    [ 16; 32; 80 ]

let test_lru_raises_on_tiny_cache () =
  Alcotest.(check bool) "cache too small" true
    (try
       ignore (Sch.run_lru w2 ~cache_size:2 (Ord.naive_topo cdag2));
       false
     with Sch.Cache_too_small _ -> true)


let test_belady_legal_and_beats_lru () =
  List.iter
    (fun (cdag, w, m) ->
      let order = Ord.recursive_dfs cdag in
      let bel = Sch.run_belady w ~cache_size:m order in
      let c = CM.replay { CM.cache_size = m; allow_recompute = false } w bel.Sch.trace in
      Alcotest.(check int) "belady replay agrees" (Tr.io bel.Sch.counters) (Tr.io c);
      Alcotest.(check bool) "belady statically clean" true
        (Tc.clean ~cache_size:m ~allow_recompute:false w bel.Sch.trace);
      let lru = Sch.run_lru w ~cache_size:m order in
      Alcotest.(check bool)
        (Printf.sprintf "belady (%d) <= lru (%d) at M=%d" (Tr.io bel.Sch.counters)
           (Tr.io lru.Sch.counters) m)
        true
        (Tr.io bel.Sch.counters <= Tr.io lru.Sch.counters))
    [ (cdag4, w4, 12); (cdag4, w4, 24); (cdag8, w8, 16); (cdag8, w8, 64) ]

let test_belady_still_respects_bound () =
  List.iter
    (fun m ->
      let res = Sch.run_belady w8 ~cache_size:m (Ord.recursive_dfs cdag8) in
      let bound = B.fast_sequential ~n:8 ~m () in
      Alcotest.(check bool)
        (Printf.sprintf "belady M=%d >= bound/8" m)
        true
        (float_of_int (Tr.io res.Sch.counters) >= bound /. 8.))
    [ 16; 32 ]

let test_schedulers_on_random_workloads () =
  (* the Workload abstraction: all three schedulers run legally on
     arbitrary layered DAGs, not just bilinear CDAGs *)
  let module Pd = Fmm_pebble.Pebble_dags in
  List.iter
    (fun seed ->
      let g, inputs, outputs = Pd.random_dag ~seed ~layers:4 ~width:5 ~density:0.4 in
      let w =
        W.make ~graph:g
          ~inputs:(Array.of_list inputs)
          ~outputs:(Array.of_list outputs)
          ()
      in
      let order =
        match Fmm_graph.Digraph.topo_sort g with
        | Some o -> List.filter (fun v -> not (W.is_input w v)) o
        | None -> Alcotest.fail "cycle"
      in
      Alcotest.(check bool) "order valid" true (W.is_valid_order w order);
      List.iter
        (fun (name, run) ->
          let res = run () in
          let c =
            CM.replay { CM.cache_size = 8; allow_recompute = true } w res.Sch.trace
          in
          Alcotest.(check int) (name ^ " replay") (Tr.io res.Sch.counters) (Tr.io c);
          Alcotest.(check bool) (name ^ " statically clean") true
            (Tc.clean ~cache_size:8 w res.Sch.trace))
        [
          ("lru", fun () -> Sch.run_lru w ~cache_size:8 order);
          ("belady", fun () -> Sch.run_belady w ~cache_size:8 order);
          ("remat", fun () -> Sch.run_rematerialize w ~cache_size:8 order);
        ])
    [ 1; 2; 3; 4; 5 ]



let prop_segments_partition_io =
  QCheck2.Test.make ~name:"segment io always partitions total io" ~count:25
    (QCheck2.Gen.int_range 0 1_000) (fun seed ->
      let rng = Fmm_util.Prng.create ~seed in
      let m = 8 + Fmm_util.Prng.int rng 56 in
      let r = [| 2; 4; 8 |].(Fmm_util.Prng.int rng 3) in
      let quota = 4 + Fmm_util.Prng.int rng 60 in
      let res = Sch.run_lru w8 ~cache_size:m (Ord.recursive_dfs cdag8) in
      let a = Seg.analyze cdag8 ~cache_size:m ~r ~quota res.Sch.trace in
      let total = List.fold_left (fun acc s -> acc + s.Seg.io) 0 a.Seg.segments in
      total = Tr.io res.Sch.counters)

let prop_lru_io_monotone_in_cache =
  QCheck2.Test.make ~name:"lru io monotone in cache size" ~count:15
    (QCheck2.Gen.int_range 0 1_000) (fun seed ->
      let order = Ord.random_topo ~seed cdag4 in
      let io m = Tr.io (Sch.run_lru w4 ~cache_size:m order).Sch.counters in
      let m1 = 8 + (seed mod 5) in
      io m1 >= io (2 * m1))

let qc = QCheck_alcotest.to_alcotest

(* --- parallel executor --- *)

module PE = Fmm_machine.Par_exec

let test_par_exec_sequential_is_free () =
  let r = PE.run w4 ~procs:1 ~assignment:(PE.sequential_assignment w4) in
  Alcotest.(check int) "no communication on 1 proc" 0 r.PE.total_words;
  Alcotest.(check int) "max zero" 0 r.PE.max_words

let test_par_exec_conservation () =
  (* sum sent = sum received = total *)
  let cdag = cdag8 in
  let r = PE.strassen_bfs_experiment cdag ~depth:1 in
  Alcotest.(check int) "sent sums" r.PE.total_words
    (Array.fold_left ( + ) 0 r.PE.sent);
  Alcotest.(check int) "received sums" r.PE.total_words
    (Array.fold_left ( + ) 0 r.PE.received);
  Alcotest.(check int) "seven processors" 7 r.PE.procs

let test_par_exec_caching () =
  (* a value consumed twice by the same remote processor moves once:
     x owned by p0, two consumers on p1 *)
  let g = Fmm_graph.Digraph.create () in
  let ids = Fmm_graph.Digraph.add_vertices g 3 in
  Fmm_graph.Digraph.add_edge g ids.(0) ids.(1);
  Fmm_graph.Digraph.add_edge g ids.(0) ids.(2);
  let work =
    W.make ~graph:g ~inputs:[| ids.(0) |] ~outputs:[| ids.(1); ids.(2) |] ()
  in
  let r = PE.run work ~procs:2 ~assignment:[| 0; 1; 1 |] in
  Alcotest.(check int) "one transfer despite two uses" 1 r.PE.total_words

let test_par_exec_vs_memind_bound () =
  (* measured max words/proc >= the memory-independent bound (modest
     Omega constant absorbed: check >= bound itself, ratios are ~9-17) *)
  List.iter
    (fun (n, depth) ->
      let c = Cd.build S.strassen ~n in
      let r = PE.strassen_bfs_experiment c ~depth in
      let bound = B.fast_memind ~n ~p:r.PE.procs () in
      Alcotest.(check bool)
        (Printf.sprintf "n=%d P=%d: %d >= %.1f" n r.PE.procs r.PE.max_words bound)
        true
        (float_of_int r.PE.max_words >= bound))
    [ (8, 1); (16, 1); (16, 2) ]

let test_par_exec_strong_scaling () =
  (* more processors: less per-processor communication, more total *)
  let c = Cd.build S.strassen ~n:16 in
  let r1 = PE.strassen_bfs_experiment c ~depth:1 in
  let r2 = PE.strassen_bfs_experiment c ~depth:2 in
  Alcotest.(check bool) "per-proc falls" true (r2.PE.max_words <= r1.PE.max_words);
  Alcotest.(check bool) "total rises" true (r2.PE.total_words >= r1.PE.total_words)

let test_par_exec_validation () =
  Alcotest.check_raises "bad assignment length"
    (Invalid_argument "Par_exec.run: assignment length mismatch") (fun () ->
      ignore (PE.run w4 ~procs:2 ~assignment:[| 0 |]));
  Alcotest.check_raises "bad processor id"
    (Invalid_argument "Par_exec.run: bad processor id") (fun () ->
      ignore
        (PE.run w4 ~procs:2
           ~assignment:(Array.make (W.n_vertices w4) 7)))


let test_par_exec_limited_memory () =
  let c = Cd.build S.strassen ~n:16 in
  let w = W.of_cdag c in
  let assignment = PE.bfs_assignment c ~depth:1 ~procs:7 in
  let unlimited = PE.run w ~procs:7 ~assignment in
  let tight = PE.run_limited w ~procs:7 ~assignment ~local_memory:8 in
  let roomy = PE.run_limited w ~procs:7 ~assignment ~local_memory:1_000_000 in
  (* unlimited memory reproduces the basic executor *)
  Alcotest.(check int) "roomy = unlimited" unlimited.PE.total_words
    roomy.PE.total_words;
  (* tight memory can only increase traffic *)
  Alcotest.(check bool)
    (Printf.sprintf "tight (%d) >= unlimited (%d)" tight.PE.total_words
       unlimited.PE.total_words)
    true
    (tight.PE.total_words >= unlimited.PE.total_words);
  Alcotest.check_raises "memory < 2"
    (Invalid_argument "Par_exec.run_limited: memory < 2") (fun () ->
      ignore (PE.run_limited w ~procs:7 ~assignment ~local_memory:1))

let test_par_exec_static_cross_check () =
  (* every BFS partition we execute is also clean under the static race
     detector, and the two word censuses agree exactly *)
  List.iter
    (fun (cdag, w, depth, procs) ->
      let assignment = PE.bfs_assignment cdag ~depth ~procs in
      let dyn = PE.run w ~procs ~assignment in
      let sta = Apc.check w ~procs ~assignment in
      Alcotest.(check int) "no static errors" 0
        (Fmm_analysis.Diagnostic.n_errors sta.Apc.report);
      Alcotest.(check int) "no races" 0 sta.Apc.races;
      Alcotest.(check int) "word census agrees" dyn.PE.total_words
        sta.Apc.total_words)
    [ (cdag4, w4, 1, 7); (cdag8, w8, 1, 7); (cdag8, w8, 2, 49) ]

let test_par_exec_limited_monotone () =
  let c = Cd.build S.strassen ~n:16 in
  let w = W.of_cdag c in
  let assignment = PE.bfs_assignment c ~depth:1 ~procs:7 in
  let words m = (PE.run_limited w ~procs:7 ~assignment ~local_memory:m).PE.total_words in
  Alcotest.(check bool) "words(4) >= words(16)" true (words 4 >= words 16);
  Alcotest.(check bool) "words(16) >= words(64)" true (words 16 >= words 64)

let test_par_exec_limited_counters_exact () =
  (* with memory to spare, run_limited must reproduce run's FULL
     per-processor census, not just the total — the invariant that
     pinned the occupancy-tracking rewrite of the LRU fetch path *)
  List.iter
    (fun (cdag, depth, procs) ->
      let w = W.of_cdag cdag in
      let assignment = PE.bfs_assignment cdag ~depth ~procs in
      let a = PE.run w ~procs ~assignment in
      let b = PE.run_limited w ~procs ~assignment ~local_memory:max_int in
      Alcotest.(check (array int)) "sent agrees" a.PE.sent b.PE.sent;
      Alcotest.(check (array int)) "received agrees" a.PE.received b.PE.received;
      Alcotest.(check int) "total agrees" a.PE.total_words b.PE.total_words;
      Alcotest.(check int) "max words agrees" a.PE.max_words b.PE.max_words)
    [ (cdag4, 1, 7); (cdag8, 1, 7); (cdag8, 2, 49); (cdag8, 2, 5) ]

let test_par_exec_census_reference () =
  (* regression for the bitset rewrite of the transfer-dedup check: an
     independent census that remembers (value, consumer) pairs in plain
     lists — the shape of the code the bitsets replaced — must agree
     with run's counters exactly on BFS Strassen n=16 depth 2 *)
  let c = Cd.build S.strassen ~n:16 in
  let w = W.of_cdag c in
  let procs = 49 in
  let assignment = PE.bfs_assignment c ~depth:2 ~procs in
  let r = PE.run w ~procs ~assignment in
  let g = W.graph w in
  let n = W.n_vertices w in
  let sent = Array.make procs 0 and received = Array.make procs 0 in
  let transferred = Array.make n [] in
  let total = ref 0 in
  let is_input = W.is_input w in
  let order =
    match Fmm_graph.Digraph.topo_sort g with
    | Some o -> o
    | None -> Alcotest.fail "not a DAG"
  in
  List.iter
    (fun v ->
      if not (is_input v) then
        let p = assignment.(v) in
        List.iter
          (fun u ->
            let owner = assignment.(u) in
            if owner <> p && not (List.mem p transferred.(u)) then begin
              transferred.(u) <- p :: transferred.(u);
              sent.(owner) <- sent.(owner) + 1;
              received.(p) <- received.(p) + 1;
              incr total
            end)
          (Fmm_graph.Digraph.in_neighbors g v))
    order;
  Alcotest.(check (array int)) "sent" sent r.PE.sent;
  Alcotest.(check (array int)) "received" received r.PE.received;
  Alcotest.(check int) "total" !total r.PE.total_words

let test_bfs_assignment_first_claim () =
  (* independent spec of the documented ownership rule: a vertex claimed
     by several depth-d subtrees (via id range, a_in or b_in) belongs to
     the one with the smallest subtree_lo; unclaimed vertices keep the
     round-robin-by-id default *)
  List.iter
    (fun (cdag, depth, procs) ->
      let n = Cd.n_vertices cdag in
      let assignment = PE.bfs_assignment cdag ~depth ~procs in
      let subtrees =
        List.filter (fun nd -> nd.Cd.depth = depth) (Cd.nodes cdag)
        |> List.sort (fun a b -> compare a.Cd.subtree_lo b.Cd.subtree_lo)
      in
      let claimants = Array.make n [] in
      List.iteri
        (fun idx nd ->
          let note v = claimants.(v) <- idx :: claimants.(v) in
          for v = nd.Cd.subtree_lo to nd.Cd.subtree_hi do note v done;
          Array.iter note nd.Cd.a_in;
          Array.iter note nd.Cd.b_in)
        subtrees;
      for v = 0 to n - 1 do
        let expected =
          match List.rev claimants.(v) with
          | [] -> v mod procs (* unclaimed: round-robin default *)
          | first :: _ -> first mod procs
        in
        Alcotest.(check int) (Printf.sprintf "vertex %d owner" v) expected
          assignment.(v)
      done;
      (* determinism + the static analyzer blesses the partition *)
      Alcotest.(check bool) "deterministic" true
        (PE.bfs_assignment cdag ~depth ~procs = assignment);
      let sta = Apc.check (W.of_cdag cdag) ~procs ~assignment in
      Alcotest.(check int) "no static errors" 0
        (Fmm_analysis.Diagnostic.n_errors sta.Apc.report);
      Alcotest.(check int) "no races" 0 sta.Apc.races)
    [ (cdag4, 1, 7); (cdag4, 1, 3); (cdag8, 1, 7); (cdag8, 2, 49) ]

let test_bfs_assignment_properties () =
  (* property sweep at depths 1-3 with processor counts that do NOT
     divide the 7^d subtree count, so the round-robin deal wraps
     unevenly *)
  List.iter
    (fun depth ->
      List.iter
        (fun procs ->
          let label fmt =
            Printf.ksprintf
              (fun s -> Printf.sprintf "d=%d P=%d: %s" depth procs s)
              fmt
          in
          let assignment = PE.bfs_assignment cdag8 ~depth ~procs in
          let subtrees =
            List.filter (fun nd -> nd.Cd.depth = depth) (Cd.nodes cdag8)
            |> List.sort (fun a b -> compare a.Cd.subtree_lo b.Cd.subtree_lo)
          in
          Alcotest.(check int) (label "7^d subtrees")
            (Fmm_util.Combinat.pow_int 7 depth)
            (List.length subtrees);
          (* claimed ranges are contiguous intervals, pairwise disjoint *)
          let _ =
            List.fold_left
              (fun prev_hi nd ->
                Alcotest.(check bool) (label "range is an interval") true
                  (nd.Cd.subtree_lo <= nd.Cd.subtree_hi);
                Alcotest.(check bool) (label "ranges disjoint, sorted") true
                  (prev_hi < nd.Cd.subtree_lo);
                nd.Cd.subtree_hi)
              (-1) subtrees
          in
          (* order-independence: dealing from a shuffled node list gives
             the identical partition, because the claim order is fixed
             by the subtree_lo sort, not by list position *)
          List.iter
            (fun seed ->
              let arr = Array.of_list subtrees in
              let rng = Fmm_util.Prng.create ~seed in
              Fmm_util.Prng.shuffle rng arr;
              let shuffled =
                List.sort
                  (fun a b -> compare a.Cd.subtree_lo b.Cd.subtree_lo)
                  (Array.to_list arr)
              in
              let n = Cd.n_vertices cdag8 in
              let reference = Array.init n (fun v -> v mod procs) in
              let claimed = Array.make n false in
              let claim p v =
                if not claimed.(v) then begin
                  claimed.(v) <- true;
                  reference.(v) <- p
                end
              in
              List.iteri
                (fun idx nd ->
                  let p = idx mod procs in
                  for v = nd.Cd.subtree_lo to nd.Cd.subtree_hi do
                    claim p v
                  done;
                  Array.iter (claim p) nd.Cd.a_in;
                  Array.iter (claim p) nd.Cd.b_in)
                shuffled;
              Alcotest.(check (array int))
                (label "shuffled deal agrees (seed %d)" seed)
                reference assignment;
              (* unclaimed vertices keep the round-robin-by-id default *)
              Array.iteri
                (fun v c ->
                  if not c then
                    Alcotest.(check int) (label "unclaimed %d round-robin" v)
                      (v mod procs) assignment.(v))
                claimed)
            [ 1; 2; 3 ])
        [ 2; 3; 5 ])
    [ 1; 2; 3 ]

(* --- differential: seeded random workloads through all three
   schedulers; every trace replays clean through both the dynamic
   machine and the static analyzer, and the scheduler hierarchy
   (belady <= lru, remat stores only outputs) holds on DAGs with no
   recursive structure at all --- *)

let random_workload ~seed =
  let rng = Fmm_util.Prng.create ~seed in
  let g = Fmm_graph.Digraph.create () in
  let n_inputs = 6 + Fmm_util.Prng.int rng 6 in
  let n_internal = 30 + Fmm_util.Prng.int rng 30 in
  let inputs = Fmm_graph.Digraph.add_vertices g n_inputs in
  let internal = Fmm_graph.Digraph.add_vertices g n_internal in
  (* edges run strictly low id -> high id, so the DAG property and a
     topological order (ascending ids) come for free *)
  Array.iter
    (fun v ->
      let arity = 1 + Fmm_util.Prng.int rng 3 in
      List.iter
        (fun p -> Fmm_graph.Digraph.add_edge g p v)
        (Fmm_util.Prng.sample rng (min arity v) v))
    internal;
  let outputs =
    Fmm_graph.Digraph.sinks g
    |> List.filter (fun v -> v >= n_inputs)
    |> Array.of_list
  in
  let w =
    W.make ~name:(Printf.sprintf "random-%d" seed) ~graph:g ~inputs ~outputs ()
  in
  (w, Array.to_list internal)

let test_schedulers_differential_random () =
  List.iter
    (fun seed ->
      let w, order = random_workload ~seed in
      let max_indeg =
        List.fold_left
          (fun acc v -> max acc (Fmm_graph.Digraph.in_degree (W.graph w) v))
          0 order
      in
      List.iter
        (fun m ->
          let ctx = Printf.sprintf "seed %d M=%d" seed m in
          let lru = Sch.run_lru w ~cache_size:m order in
          let bel = Sch.run_belady w ~cache_size:m order in
          (* rematerialization pins whole recompute chains, so tight
             caches can legitimately refuse; at M=64 it must succeed *)
          let rem =
            try Some (Sch.run_rematerialize w ~cache_size:m order)
            with Sch.Cache_too_small _ when m < 64 -> None
          in
          let runs =
            [ ("lru", false, Some lru); ("belady", false, Some bel);
              ("remat", true, rem) ]
          in
          (* every trace replays clean, dynamically and statically *)
          List.iter
            (fun (name, allow_recompute, res) ->
              match res with
              | None -> ()
              | Some (res : Sch.result) ->
                let c =
                  CM.replay { CM.cache_size = m; allow_recompute } w res.Sch.trace
                in
                Alcotest.(check int)
                  (Printf.sprintf "%s %s replay io" ctx name)
                  (Tr.io res.Sch.counters) (Tr.io c);
                Alcotest.(check bool)
                  (Printf.sprintf "%s %s statically clean" ctx name)
                  true
                  (Tc.clean ~cache_size:m ~allow_recompute w res.Sch.trace))
            runs;
          (* the hierarchy *)
          Alcotest.(check bool)
            (Printf.sprintf "%s belady <= lru" ctx)
            true
            (Tr.io bel.Sch.counters <= Tr.io lru.Sch.counters);
          match rem with
          | None -> ()
          | Some rem ->
            Alcotest.(check int)
              (Printf.sprintf "%s remat stores only outputs" ctx)
              (Array.length (W.outputs w))
              rem.Sch.counters.Tr.stores)
        [ max_indeg + 2; max_indeg + 8; 64 ])
    [ 1; 2; 3; 4; 5; 6; 7; 8 ]

(* --- bugfix regressions: flop cap, Belady tie-break, hybrid --- *)

let contains s sub =
  let n = String.length s and m = String.length sub in
  let rec go i = i + m <= n && (String.sub s i m = sub || go (i + 1)) in
  go 0

let test_remat_flop_cap_never_overshoots () =
  let order = Ord.recursive_dfs cdag8 in
  let m = 48 in
  let unrestricted = Sch.run_rematerialize w8 ~cache_size:m order in
  let flops = unrestricted.Sch.counters.Tr.computes in
  (* the exact budget is feasible: the run spends all of it, no more *)
  let exact = Sch.run_rematerialize ~max_flops:flops w8 ~cache_size:m order in
  Alcotest.(check int) "cap = F runs exactly F computes" flops
    exact.Sch.counters.Tr.computes;
  (* one flop less — or much less — must abort mid-descent, never
     finish over budget (the cap is charged before each compute) *)
  List.iter
    (fun cap ->
      match Sch.run_rematerialize ~max_flops:cap w8 ~cache_size:m order with
      | _ -> Alcotest.failf "cap %d should have raised" cap
      | exception Failure msg ->
        Alcotest.(check bool)
          (Printf.sprintf "cap %d raises the budget error" cap)
          true
          (contains msg "flop budget"))
    [ flops - 1; flops / 2; 1 ]

(* A hand-built DAG where Belady faces a tie: a computed-but-unstored
   value [a] (dirty) and an input [b] (clean) are both next used by the
   final output compute. Evicting [a] costs a Store + a reload; [b]
   reloads for free. The ids are arranged so a naive
   first-maximum-wins scan would pick the dirty one. *)
let test_belady_tie_prefers_clean () =
  let g = Fmm_graph.Digraph.create () in
  (match Fmm_graph.Digraph.add_vertices g 6 with
  | [| 0; 1; 2; 3; 4; 5 |] -> ()
  | _ -> Alcotest.fail "unexpected vertex ids");
  (* 0 = a (internal, dirty at the tie), 1 = b (input, clean),
     2 = i0 (input), 3 = d1, 4 = d2 (pressure), 5 = z (output) *)
  List.iter
    (fun (p, v) -> Fmm_graph.Digraph.add_edge g p v)
    [ (2, 0); (1, 3); (3, 4); (0, 5); (1, 5) ];
  let w =
    W.make ~name:"belady-tie" ~graph:g ~inputs:[| 1; 2 |] ~outputs:[| 5 |] ()
  in
  let order = [ 0; 3; 4; 5 ] in
  Alcotest.(check bool) "order valid" true (W.is_valid_order w order);
  let bel = Sch.run_belady w ~cache_size:3 order in
  (* clean victim: the only Store in the whole run is the output flush;
     evicting dirty [a] at the tie would make it two *)
  Alcotest.(check int) "stores" 1 bel.Sch.counters.Tr.stores;
  Alcotest.(check int) "loads" 3 bel.Sch.counters.Tr.loads;
  let c = CM.replay (cfg 3) w bel.Sch.trace in
  Alcotest.(check int) "replay io" (Tr.io bel.Sch.counters) (Tr.io c);
  let lru = Sch.run_lru w ~cache_size:3 order in
  Alcotest.(check bool) "belady <= lru" true
    (Tr.io bel.Sch.counters <= Tr.io lru.Sch.counters)

let test_hybrid_all_false_is_lru () =
  (* recompute = never: run_hybrid must reproduce run_lru event for
     event, on the recursive CDAG and on unstructured random DAGs *)
  let check name w order m =
    let lru = Sch.run_lru w ~cache_size:m order in
    let hyb = Sch.run_hybrid w ~cache_size:m ~recompute:(fun _ -> false) order in
    Alcotest.(check bool)
      (Printf.sprintf "%s M=%d traces equal" name m)
      true
      (lru.Sch.trace = hyb.Sch.trace);
    Alcotest.(check int)
      (Printf.sprintf "%s M=%d io equal" name m)
      (Tr.io lru.Sch.counters) (Tr.io hyb.Sch.counters)
  in
  let order8 = Ord.recursive_dfs cdag8 in
  List.iter (fun m -> check "strassen-8" w8 order8 m) [ 16; 32; 64; 256 ];
  List.iter
    (fun seed ->
      let w, order = random_workload ~seed in
      List.iter (fun m -> check (Printf.sprintf "random-%d" seed) w order m)
        [ 8; 16; 64 ])
    [ 1; 2; 3 ]

let test_hybrid_differential_random () =
  (* arbitrary recompute flags: every trace must replay clean through
     both oracles, and flagged non-outputs must never be stored *)
  List.iter
    (fun seed ->
      let w, order = random_workload ~seed in
      let is_input = W.is_input w and is_output = W.is_output w in
      let flags =
        [
          ("remat-like", fun v -> (not (is_input v)) && not (is_output v));
          ("even", fun v -> v mod 2 = 0);
          ("thirds", fun v -> v mod 3 = 0);
        ]
      in
      List.iter
        (fun (fname, recompute) ->
          let ctx = Printf.sprintf "seed %d %s" seed fname in
          match Sch.run_hybrid w ~cache_size:64 ~recompute order with
          | exception (Failure _ | Sch.Cache_too_small _) ->
            Alcotest.failf "%s: M=64 refused" ctx
          | res ->
            let c =
              CM.replay
                { CM.cache_size = 64; allow_recompute = true }
                w res.Sch.trace
            in
            Alcotest.(check int)
              (Printf.sprintf "%s replay io" ctx)
              (Tr.io res.Sch.counters) (Tr.io c);
            Alcotest.(check bool)
              (Printf.sprintf "%s statically clean" ctx)
              true
              (Tc.clean ~cache_size:64 w res.Sch.trace);
            Tr.iter
              (function
                | Tr.Store v ->
                  Alcotest.(check bool)
                    (Printf.sprintf "%s stores only spill-or-output %d" ctx v)
                    true
                    (is_output v || not (recompute v))
                | _ -> ())
              res.Sch.trace)
        flags)
    [ 1; 2; 3; 4; 5 ]

(* --- Belady against its reference ---

   The Belady scheduler as it stood before its victim heap: flat
   per-vertex reference arrays built from the whole order, and an O(M)
   scan of the residents at every eviction for the farthest next use
   (clean before dirty, then the smaller id). [run_belady] must emit
   the same events, or refuse with the same exception. *)
module Belady_reference = struct
  module Bits = Fmm_util.Bitset

  let run work ~cache_size order =
    let n = W.n_vertices work in
    let b = Tr.builder () in
    let emit = Tr.add b in
    let in_cache = Bits.create n and in_slow = Bits.create n in
    let pinned = Bits.create n and ever = Bits.create n in
    Array.iter (Bits.add in_slow) (W.inputs work);
    let residents = Hashtbl.create 64 in
    let loads = ref 0 and stores = ref 0 and computes = ref 0 and recomputes = ref 0 in
    let is_output = W.is_output work in
    (* v is referenced at step i when it is an operand of order[i] or
       order[i] itself; its steps are refs.(first.(v) .. first.(v+1) - 1),
       ascending, and cursor.(v) skips the ones already past *)
    let first = Array.make (n + 1) 0 in
    let tally v = first.(v + 1) <- first.(v + 1) + 1 in
    List.iter
      (fun v ->
        tally v;
        W.iter_preds work v ~f:tally)
      order;
    for v = 0 to n - 1 do
      first.(v + 1) <- first.(v + 1) + first.(v)
    done;
    let refs = Array.make first.(n) 0 in
    let cursor = Array.sub first 0 n in
    List.iteri
      (fun i v ->
        let record u =
          refs.(cursor.(u)) <- i;
          cursor.(u) <- cursor.(u) + 1
        in
        record v;
        W.iter_preds work v ~f:record)
      order;
    Array.blit first 0 cursor 0 n;
    let refs_from v now =
      while cursor.(v) < first.(v + 1) && refs.(cursor.(v)) < now do
        cursor.(v) <- cursor.(v) + 1
      done;
      cursor.(v)
    in
    let next_use_after v now =
      let k = ref (refs_from v now) in
      while !k < first.(v + 1) && refs.(!k) <= now do
        incr k
      done;
      if !k < first.(v + 1) then refs.(!k) else max_int
    in
    let writeback now v = is_output v || refs_from v now < first.(v + 1) in
    let store v =
      emit (Tr.store v);
      Bits.add in_slow v;
      incr stores
    in
    let evict v =
      emit (Tr.evict v);
      Bits.remove in_cache v;
      Hashtbl.remove residents v
    in
    let make_resident v =
      Bits.add in_cache v;
      Bits.add ever v;
      Hashtbl.replace residents v ()
    in
    let evict_belady now =
      let victim = ref (-1) and victim_next = ref (-1) and victim_dirty = ref false in
      Hashtbl.iter
        (fun v () ->
          if not (Bits.mem pinned v) then begin
            let nu = next_use_after v now in
            if nu >= !victim_next then begin
              let dirty = (not (Bits.mem in_slow v)) && writeback now v in
              if
                nu > !victim_next
                || (!victim_dirty && not dirty)
                || (!victim_dirty = dirty && v < !victim)
              then begin
                victim := v;
                victim_next := nu;
                victim_dirty := dirty
              end
            end
          end)
        residents;
      if !victim < 0 then
        raise
          (Sch.Cache_too_small
             (Printf.sprintf "Schedulers: cache of %d words too small (everything pinned)"
                cache_size));
      let v = !victim in
      if writeback now v && not (Bits.mem in_slow v) then store v;
      evict v
    in
    let ensure_room now =
      while Hashtbl.length residents >= cache_size do
        evict_belady now
      done
    in
    List.iteri
      (fun now v ->
        let ops = ref [] in
        W.iter_preds work v ~f:(fun p -> ops := p :: !ops);
        let ops = List.rev !ops in
        List.iter
          (fun p ->
            if not (Bits.mem in_cache p) then begin
              if not (Bits.mem in_slow p) then
                failwith
                  (Printf.sprintf
                     "Schedulers.run_belady: order step %d (vertex %d): operand %d lost" now v
                     p);
              Bits.add pinned p;
              ensure_room now;
              emit (Tr.load p);
              incr loads;
              make_resident p
            end
            else Bits.add pinned p)
          ops;
        ensure_room now;
        emit (Tr.compute v);
        if Bits.mem ever v then incr recomputes;
        incr computes;
        make_resident v;
        List.iter
          (fun p ->
            Bits.remove pinned p;
            if next_use_after p now = max_int && (not (is_output p)) && Bits.mem in_cache p
            then evict p)
          ops)
      order;
    Array.iter
      (fun v -> if Bits.mem in_cache v && not (Bits.mem in_slow v) then store v)
      (W.outputs work);
    {
      Sch.trace = Tr.freeze b;
      counters =
        { Tr.loads = !loads; stores = !stores; computes = !computes; recomputes = !recomputes };
    }
end

(* Both runs' outcomes: equal traces and counters, or equal refusals.
   Returns whether the configuration was refused. *)
let check_belady_reference ctx w ~cache_size order =
  let outcome run =
    match run w ~cache_size order with
    | (r : Sch.result) -> Ok r
    | exception Sch.Cache_too_small msg -> Error ("too small: " ^ msg)
    | exception Failure msg -> Error msg
  in
  match (outcome Sch.run_belady, outcome Belady_reference.run) with
  | Ok r, Ok e ->
    if r.Sch.trace <> e.Sch.trace then Alcotest.failf "%s M=%d: traces differ" ctx cache_size;
    if r.Sch.counters <> e.Sch.counters then
      Alcotest.failf "%s M=%d: counters differ" ctx cache_size;
    false
  | Error r, Error e ->
    Alcotest.(check string) (Printf.sprintf "%s M=%d refusal" ctx cache_size) e r;
    true
  | Ok _, Error e -> Alcotest.failf "%s M=%d: ran where the reference refused (%s)" ctx cache_size e
  | Error r, Ok _ -> Alcotest.failf "%s M=%d: refused where the reference ran (%s)" ctx cache_size r

(* Random DAGs over [0, n): the first vertices are inputs, each other
   vertex draws its operands from lower ids with replacement (so
   parallel edges occur), and outputs are the sinks plus a random fifth
   of the other computed vertices. The order is a seeded random
   topological order. *)
let random_belady_case ~seed =
  let rng = Fmm_util.Prng.create ~seed in
  let g = Fmm_graph.Digraph.create () in
  let n_inputs = 2 + Fmm_util.Prng.int rng 6 in
  let n = n_inputs + 5 + Fmm_util.Prng.int rng 40 in
  ignore (Fmm_graph.Digraph.add_vertices g n);
  for v = n_inputs to n - 1 do
    for _ = 0 to Fmm_util.Prng.int rng 4 do
      Fmm_graph.Digraph.add_edge g (Fmm_util.Prng.int rng v) v
    done
  done;
  let outputs =
    List.filter
      (fun v ->
        v >= n_inputs
        && (Fmm_graph.Digraph.out_degree g v = 0 || Fmm_util.Prng.int rng 5 = 0))
      (List.init n Fun.id)
  in
  let w =
    W.make ~graph:g ~inputs:(Array.init n_inputs Fun.id) ~outputs:(Array.of_list outputs) ()
  in
  (* Kahn's algorithm, taking a random ready vertex each time *)
  let waiting = Array.init n (fun v -> if v < n_inputs then 0 else W.in_degree w v) in
  let ready = ref [] in
  let release v =
    W.iter_succs w v ~f:(fun s ->
        waiting.(s) <- waiting.(s) - 1;
        if waiting.(s) = 0 then ready := s :: !ready)
  in
  for v = 0 to n_inputs - 1 do
    release v
  done;
  let order = ref [] in
  while !ready <> [] do
    let v = Fmm_util.Prng.choose rng !ready in
    ready := List.filter (fun u -> u <> v) !ready;
    order := v :: !order;
    release v
  done;
  let order = List.rev !order in
  Alcotest.(check bool) (Printf.sprintf "seed %d order valid" seed) true (W.is_valid_order w order);
  (w, order)

let test_belady_reference_random () =
  for seed = 1 to 150 do
    let w, order = random_belady_case ~seed in
    let max_indeg = List.fold_left (fun acc v -> max acc (W.in_degree w v)) 0 order in
    for m = max_indeg to max_indeg + 13 do
      ignore (check_belady_reference (Printf.sprintf "random seed %d" seed) w ~cache_size:m order)
    done
  done

let ascending_order w =
  let acc = ref [] in
  W.iter_ascending_order w ~f:(fun _ v -> acc := v :: !acc);
  List.rev !acc

let test_belady_reference_cdags () =
  let winograd = S.winograd in
  let small_ms = [ 3; 4; 5; 6; 7; 8; 10; 12; 16; 24; 32; 48; 64; 96; 128; 256; 512; 1024 ] in
  List.iter
    (fun (name, alg, n, cutoff, ms) ->
      let cdag = Cd.build ~cutoff alg ~n in
      let w = W.of_cdag cdag in
      List.iter
        (fun (oname, order) ->
          List.iter
            (fun m ->
              ignore
                (check_belady_reference
                   (Printf.sprintf "%s n=%d cutoff=%d %s" name n cutoff oname)
                   w ~cache_size:m order))
            ms)
        [ ("dfs", Ord.recursive_dfs cdag); ("ascending", ascending_order w) ])
    [
      ("Strassen", S.strassen, 4, 1, small_ms);
      ("Strassen", S.strassen, 8, 1, small_ms);
      ("Strassen", S.strassen, 16, 1, small_ms);
      ("Winograd", winograd, 4, 1, small_ms);
      ("Winograd", winograd, 8, 1, small_ms);
      ("Winograd", winograd, 16, 1, small_ms);
      ("Strassen", S.strassen, 8, 2, small_ms);
      ("Strassen", S.strassen, 16, 4, small_ms);
      ("Winograd", winograd, 8, 4, small_ms);
      ("Strassen", S.strassen, 32, 1, [ 3; 16; 256; 1024 ]);
    ]

(* --- allocation: the cache core allocates O(M) once, the trace one
   word per event plus its chunks --- *)

(* Words allocated by [f]: minor words plus direct major allocations,
   or the minor count alone when it is larger (as test_dataflow
   measures the packed trace's readers). *)
let words_allocated f =
  let m0 = Gc.minor_words () and b0 = Gc.allocated_bytes () in
  let r = f () in
  let minor = Gc.minor_words () -. m0 in
  let all = (Gc.allocated_bytes () -. b0) /. float_of_int (Sys.word_size / 8) in
  (r, Float.max minor all)

let test_schedulers_allocation () =
  let cdag = Cd.build S.strassen ~n:16 in
  let w = W.of_cdag cdag and order = Ord.recursive_dfs cdag and m = 64 in
  let vertices = float_of_int (W.n_vertices w) in
  List.iter
    (fun (name, run) ->
      (* the counters read high now and then (once 5.45 words per event
         where the same run reads 2.94), so the least of three runs
         counts *)
      let r, words = words_allocated run in
      let words =
        Float.min words (Float.min (snd (words_allocated run)) (snd (words_allocated run)))
      in
      let events = float_of_int (Tr.length r.Sch.trace) in
      if words > (3. *. events) +. (2. *. vertices) then
        Alcotest.failf "%s allocates %.0f words for %.0f events and %.0f vertices (%.2f per event)"
          name words events vertices (words /. events))
    [
      ("run_lru", fun () -> Sch.run_lru w ~cache_size:m order);
      ( "run_hybrid",
        fun () -> Sch.run_hybrid w ~cache_size:m ~recompute:(fun v -> v mod 3 = 0) order );
      ("run_belady", fun () -> Sch.run_belady w ~cache_size:m order);
      ("run_rematerialize", fun () -> Sch.run_rematerialize w ~cache_size:m order);
    ]

(* a cache of zero or negative size is refused by every scheduler *)
let test_no_cache_refused () =
  let order = Ord.recursive_dfs cdag4 in
  let imp = Fmm_cdag.Implicit.of_cdag cdag4 in
  List.iter
    (fun m ->
      List.iter
        (fun (name, run) ->
          match run () with
          | () -> Alcotest.failf "%s ran with a cache of %d words" name m
          | exception Sch.Cache_too_small _ -> ())
        [
          ("run_lru", fun () -> ignore (Sch.run_lru w4 ~cache_size:m order));
          ( "run_hybrid",
            fun () -> ignore (Sch.run_hybrid w4 ~cache_size:m ~recompute:(fun _ -> true) order) );
          ("run_belady", fun () -> ignore (Sch.run_belady w4 ~cache_size:m order));
          ("run_rematerialize", fun () -> ignore (Sch.run_rematerialize w4 ~cache_size:m order));
          ( "Stream_exec.run_lru",
            fun () -> ignore (Fmm_machine.Stream_exec.run_lru imp ~cache_size:m ()) );
        ])
    [ 0; -3 ]

(* --- segment analysis (Lemma 3.6) --- *)

let test_segments_partition_io () =
  let m = 16 in
  let res = Sch.run_lru w8 ~cache_size:m (Ord.recursive_dfs cdag8) in
  let a = Seg.analyze cdag8 ~cache_size:m ~r:4 ~quota:16 res.Sch.trace in
  (* segment I/O sums to the trace's total I/O *)
  let total = List.fold_left (fun acc s -> acc + s.Seg.io) 0 a.Seg.segments in
  Alcotest.(check int) "io partitions" (Tr.io res.Sch.counters) total;
  (* all but the last segment hit the quota *)
  let rec check_full = function
    | [] | [ _ ] -> ()
    | s :: rest ->
      Alcotest.(check int) "full quota" a.Seg.quota s.Seg.output_computations;
      check_full rest
  in
  check_full a.Seg.segments

let test_segments_lemma_3_6 () =
  (* Lemma 3.6 with r = 2 sqrt(M): M = 4, r = 4, quota 4M = 16.
     Every full segment must do >= r^2/2 - M = 4 I/O. *)
  let m = 4 in
  (* M = 4 is too small to execute (max in-degree + 1 exceeds it), so
     use the schedule from a slightly larger cache and analyze with the
     theorem's parameters — the bound must hold a fortiori for any
     schedule of a machine with cache <= 4. Instead we run at M = 8 and
     use the r matching 2 sqrt 8 ~ 5 -> 4. *)
  ignore m;
  let cache = 8 in
  let res = Sch.run_lru w8 ~cache_size:cache (Ord.recursive_dfs cdag8) in
  let a = Seg.analyze cdag8 ~cache_size:cache ~r:4 res.Sch.trace in
  Alcotest.(check bool) "Lemma 3.6 holds" true (Seg.lemma_3_6_holds a);
  match Seg.min_io_full_segments a with
  | None -> () (* fewer outputs than one quota: vacuous *)
  | Some min_io -> Alcotest.(check bool) "bound nontrivial" true (min_io >= a.Seg.bound)

let test_segments_on_rematerialized_trace () =
  (* The lemma is recomputation-proof: it must hold on the
     rematerializing schedule too, and the analyzer must count only
     FIRST-time computations of sub-outputs even though the trace
     recomputes some of them. *)
  let cache = 32 in
  let res = Sch.run_rematerialize w8 ~cache_size:cache (Ord.recursive_dfs cdag8) in
  let a = Seg.analyze cdag8 ~cache_size:cache ~r:4 ~quota:16 res.Sch.trace in
  Alcotest.(check bool) "Lemma 3.6 on recomputing schedule" true
    (Seg.lemma_3_6_holds a);
  let counted =
    List.fold_left (fun acc s -> acc + s.Seg.output_computations) 0 a.Seg.segments
  in
  Alcotest.(check int) "first-time computations only"
    (List.length (Cd.sub_outputs cdag8 ~r:4))
    counted

let test_segments_odd_r_ceiling () =
  (* Regression: the Lemma 3.6 bound is ceil(r^2/2) - M. Truncating
     division made it r^2/2 - M — one too weak whenever r is odd. With
     r = 3 and M = 4 the bound is ceil(9/2) - 4 = 1, not 0 (vacuous). *)
  let alg = Fmm_bilinear.Algorithm.classical ~n:3 ~m:3 ~k:3 in
  let cdag = Cd.build alg ~n:3 in
  let w = W.of_cdag cdag in
  let res = Sch.run_lru w ~cache_size:8 (Ord.recursive_dfs cdag) in
  let a = Seg.analyze cdag ~cache_size:4 ~r:3 ~quota:4 res.Sch.trace in
  Alcotest.(check int) "ceil(9/2) - 4" 1 a.Seg.bound;
  Alcotest.(check bool) "Lemma 3.6 holds at odd r" true (Seg.lemma_3_6_holds a);
  (* even r is unaffected by the ceiling: r = 4, M = 4 -> 8 - 4 = 4 *)
  let res8 = Sch.run_lru w8 ~cache_size:16 (Ord.recursive_dfs cdag8) in
  let a8 = Seg.analyze cdag8 ~cache_size:4 ~r:4 res8.Sch.trace in
  Alcotest.(check int) "even r bound unchanged" 4 a8.Seg.bound

(* --- parallel models --- *)

let test_cannon () =
  let c = Par.cannon_2d ~n:64 ~p:16 in
  (* words = 2 * n^2/sqrt(P) = 2 * 4096 / 4 = 2048 *)
  Alcotest.(check bool) "cannon words" true (c.Par.words_per_proc = 2048.);
  Alcotest.check_raises "non-square P"
    (Invalid_argument "Par_model.cannon_2d: P must be a perfect square")
    (fun () -> ignore (Par.cannon_2d ~n:64 ~p:3))

let test_3d () =
  let c = Par.classical_3d ~n:64 ~p:64 in
  (* 3 * n^2 / P^{2/3} = 3 * 4096 / 16 = 768 *)
  Alcotest.(check bool) "3d words" true (c.Par.words_per_proc = 768.);
  (* 3D beats 2D at the same P (when both apply) *)
  let c2 = Par.cannon_2d ~n:64 ~p:64 in
  Alcotest.(check bool) "3d < 2d" true (c2.Par.words_per_proc > c.Par.words_per_proc)

let test_parallel_grid_boundaries () =
  (* the grid checks use exact integer roots: P one off a perfect
     square / cube must be rejected, the exact powers accepted. The
     float-rounding path this replaced could mis-tile near the
     boundary. *)
  List.iter
    (fun p ->
      Alcotest.check_raises (Printf.sprintf "cannon p=%d" p)
        (Invalid_argument "Par_model.cannon_2d: P must be a perfect square")
        (fun () -> ignore (Par.cannon_2d ~n:64 ~p)))
    [ 15; 17; 35; 37 ];
  Alcotest.(check int) "cannon p=16 accepted" 16 (Par.cannon_2d ~n:64 ~p:16).Par.p;
  Alcotest.(check int) "cannon p=36 accepted" 36 (Par.cannon_2d ~n:36 ~p:36).Par.p;
  List.iter
    (fun p ->
      Alcotest.check_raises (Printf.sprintf "3d p=%d" p)
        (Invalid_argument "Par_model.classical_3d: P must be a perfect cube")
        (fun () -> ignore (Par.classical_3d ~n:36 ~p)))
    [ 26; 28 ];
  Alcotest.(check int) "3d p=27 accepted" 27 (Par.classical_3d ~n:36 ~p:27).Par.p

let test_grid_3d () =
  (* exact brick footprints, ceil-divided — never float-rounded *)
  let c = Par.grid_3d ~n:64 ~p:8 (2, 2, 2) in
  (* bricks 32x32 everywhere; C partial counted twice (p3 > 1) *)
  Alcotest.(check bool) "cubic grid words" true (c.Par.words_per_proc = 4096.);
  let c1 = Par.grid_3d ~n:64 ~p:4 (2, 2, 1) in
  (* p3 = 1: no reduction round, C counted once: 2048 + 2048 + 1024 *)
  Alcotest.(check bool) "flat grid words" true (c1.Par.words_per_proc = 5120.);
  Alcotest.(check int) "flat grid rounds" 2 c1.Par.rounds;
  (* non-dividing n: tiles are ceilings, 4*5 + 5*5 + 2*4*5 = 85 *)
  let cc = Par.grid_3d ~n:10 ~p:12 (3, 2, 2) in
  Alcotest.(check bool) "ceil tiles" true (cc.Par.words_per_proc = 85.)

let test_grid_3d_rejects_degenerate () =
  Alcotest.check_raises "product mismatch"
    (Invalid_argument
       "Par_model.grid_3d: degenerate grid (2, 2, 3): product 12 <> P = 8")
    (fun () -> ignore (Par.grid_3d ~n:64 ~p:8 (2, 2, 3)));
  Alcotest.check_raises "zero factor"
    (Invalid_argument "Par_model.grid_3d: grid (0, 4, 2) has a factor < 1")
    (fun () -> ignore (Par.grid_3d ~n:64 ~p:8 (0, 4, 2)))

let test_caps_schedule_boundaries () =
  (* pin the exact (BFS, DFS) counts at the decision boundaries of the
     caps recursion — the memory threshold for a BFS step at size n on
     p procs is exactly 21 (n/2)^2 / p words *)
  let sched n p m = Par.caps_schedule ~n ~p ~m in
  Alcotest.(check (pair int int)) "p=1: no parallel steps" (0, 0)
    (sched 64 1 max_int);
  Alcotest.(check (pair int int)) "p=8 never divisible by 7" (0, 6)
    (sched 64 8 max_int);
  Alcotest.(check (pair int int)) "ample memory, p=49: all BFS" (2, 0)
    (sched 64 49 max_int);
  (* n=64, p=7: threshold is 21 * 32^2 / 7 = 3072 words exactly *)
  Alcotest.(check (pair int int)) "at threshold: BFS" (1, 0) (sched 64 7 3072);
  Alcotest.(check (pair int int)) "one word under: DFS then BFS" (1, 1)
    (sched 64 7 3071);
  (* next threshold down: 21 * 16^2 / 7 = 768 *)
  Alcotest.(check (pair int int)) "two thresholds under" (1, 2)
    (sched 64 7 767);
  (* odd n falls back to the 2D-style exchange: no steps recorded *)
  Alcotest.(check (pair int int)) "odd n fallback" (0, 0)
    (sched 63 49 max_int)

let test_caps_regimes () =
  let n = 1 lsl 10 in
  (* plentiful memory: all-BFS *)
  let bfs, dfs = Par.caps_schedule ~n ~p:(7 * 7 * 7) ~m:max_int in
  Alcotest.(check int) "all BFS" 3 bfs;
  Alcotest.(check int) "no DFS" 0 dfs;
  (* scarce memory: DFS steps appear first *)
  let _, dfs_tight = Par.caps_schedule ~n ~p:(7 * 7 * 7) ~m:(n * n / 2000) in
  Alcotest.(check bool) "tight memory forces DFS" true (dfs_tight > 0);
  (* words grow as memory shrinks *)
  let w_rich = Par.caps_words ~n ~p:343 ~m:max_int in
  let w_poor = Par.caps_words ~n ~p:343 ~m:(n * n / 2000) in
  Alcotest.(check bool) "less memory, more comm" true (w_poor >= w_rich)

let test_caps_tracks_bounds () =
  (* With ample memory, CAPS words/proc should scale like the
     memory-independent bound: ratio roughly constant across P. *)
  let n = 1 lsl 9 in
  let ratio p =
    Par.caps_words ~n ~p ~m:max_int /. B.fast_memind ~n ~p ()
  in
  let r1 = ratio 7 and r2 = ratio 49 and r3 = ratio 343 in
  Alcotest.(check bool) "ratios bounded" true
    (let lo = min r1 (min r2 r3) and hi = max r1 (max r2 r3) in
     hi /. lo < 4.)

let test_caps_strong_scaling_monotone () =
  let n = 1 lsl 9 in
  let w p = Par.caps_words ~n ~p ~m:max_int in
  (* total communication volume P * w grows with P, per-proc falls *)
  Alcotest.(check bool) "per-proc falls" true (w 49 <= w 7);
  Alcotest.(check bool) "total rises" true (49. *. w 49 >= 7. *. w 7)

(* --- the packed trace contract --- *)

(* every scheduler's trace on Strassen n = 8, M = 32 *)
let packed_traces () =
  let order = Ord.recursive_dfs cdag8 and m = 32 in
  [
    ("lru", Sch.run_lru w8 ~cache_size:m order);
    ("belady", Sch.run_belady w8 ~cache_size:m order);
    ("remat", Sch.run_rematerialize w8 ~cache_size:m order);
    ("hybrid", Sch.run_hybrid w8 ~cache_size:m ~recompute:(fun v -> v mod 2 = 0) order);
    ( "stream",
      Fmm_machine.Stream_exec.run_lru_collect (Fmm_cdag.Implicit.of_cdag cdag8) ~cache_size:m );
  ]

let test_trace_one_word_per_event () =
  List.iter
    (fun (name, (r : Sch.result)) ->
      Alcotest.(check int)
        (name ^ ": words held = events + header")
        (Tr.length r.Sch.trace + 1)
        (Obj.reachable_words (Obj.repr r.Sch.trace)))
    (packed_traces ())

let test_trace_event_view () =
  List.iter
    (fun (name, (r : Sch.result)) ->
      let t = r.Sch.trace in
      let events = Tr.to_list t in
      Alcotest.(check bool) (name ^ ": of_list (to_list t) = t") true (Tr.of_list events = t);
      Alcotest.(check bool) (name ^ ": get agrees with to_list") true
        (List.for_all2 ( = ) (List.init (Tr.length t) (Tr.get t)) events);
      (* a recount through the boxed view *)
      let computed = Hashtbl.create 64 in
      let boxed =
        Tr.fold
          (fun (c : Tr.counters) e ->
            match e with
            | Tr.Load _ -> { c with loads = c.loads + 1 }
            | Tr.Store _ -> { c with stores = c.stores + 1 }
            | Tr.Evict _ -> c
            | Tr.Compute v ->
              let again = Hashtbl.mem computed v in
              Hashtbl.replace computed v ();
              {
                c with
                computes = c.computes + 1;
                recomputes = (c.recomputes + if again then 1 else 0);
              })
          { Tr.loads = 0; stores = 0; computes = 0; recomputes = 0 }
          t
      in
      Alcotest.(check bool) (name ^ ": count = boxed recount") true (Tr.count t = boxed);
      Alcotest.(check bool) (name ^ ": count = scheduler counters") true
        (Tr.count t = r.Sch.counters))
    (packed_traces ());
  (* negative and extreme ids round-trip; sparse ids still count *)
  let odd = [ Tr.Load (-1); Tr.Compute (-7); Tr.Store (max_int / 4); Tr.Compute (-7);
              Tr.Evict (min_int / 4); Tr.Compute (max_int / 4) ] in
  Alcotest.(check bool) "extreme ids round-trip" true (Tr.to_list (Tr.of_list odd) = odd);
  Alcotest.(check bool) "sparse ids count" true
    (Tr.count (Tr.of_list odd) = { Tr.loads = 1; stores = 1; computes = 3; recomputes = 1 })

let test_trace_rejects_unpackable () =
  List.iter
    (fun (name, f) ->
      match f () with
      | _ -> Alcotest.failf "%s: packed" name
      | exception Invalid_argument _ -> ())
    [
      ("load max_int", fun () -> Tr.load max_int);
      ("compute min_int", fun () -> Tr.compute min_int);
      ("store max_int/4 + 1", fun () -> Tr.store ((max_int / 4) + 1));
      ("evict min_int/4 - 1", fun () -> Tr.evict ((min_int / 4) - 1));
      ("of_list", fun () -> Tr.length (Tr.of_list [ Tr.Compute (max_int / 2) ]));
    ]

let () =
  Alcotest.run "fmm_machine"
    [
      ( "trace",
        [
          Alcotest.test_case "one word per event" `Quick test_trace_one_word_per_event;
          Alcotest.test_case "event view" `Quick test_trace_event_view;
          Alcotest.test_case "rejects unpackable ids" `Quick test_trace_rejects_unpackable;
        ] );
      ( "cache_machine",
        [
          Alcotest.test_case "rejects illegal" `Quick test_machine_rejects_illegal;
          Alcotest.test_case "recompute switch" `Quick
            test_machine_rejects_recompute_when_disabled;
        ] );
      ( "orders",
        [
          Alcotest.test_case "valid" `Quick test_orders_valid;
          Alcotest.test_case "cover all" `Quick test_orders_cover_all_vertices;
          Alcotest.test_case "invalid detected" `Quick test_invalid_order_detected;
        ] );
      ( "schedulers",
        [
          Alcotest.test_case "lru legal" `Quick test_lru_legal_and_counts;
          Alcotest.test_case "io vs memory" `Quick test_lru_io_decreases_with_memory;
          Alcotest.test_case "dfs locality" `Quick test_dfs_beats_naive_locality;
          Alcotest.test_case "lru >= bound" `Quick test_lru_respects_lower_bound;
          Alcotest.test_case "rematerialize legal" `Quick test_rematerialize_legal;
          Alcotest.test_case "flops for stores" `Quick
            test_rematerialize_trades_flops_for_stores;
          Alcotest.test_case "rematerialize >= bound" `Quick
            test_rematerialize_still_respects_bound;
          Alcotest.test_case "tiny cache" `Quick test_lru_raises_on_tiny_cache;
          Alcotest.test_case "no cache" `Quick test_no_cache_refused;
          Alcotest.test_case "belady" `Quick test_belady_legal_and_beats_lru;
          Alcotest.test_case "belady >= bound" `Quick test_belady_still_respects_bound;
          Alcotest.test_case "random workloads" `Quick
            test_schedulers_on_random_workloads;
        ] );
      ( "segments",
        [
          qc prop_segments_partition_io;
          qc prop_lru_io_monotone_in_cache;
          Alcotest.test_case "partition" `Quick test_segments_partition_io;
          Alcotest.test_case "lemma 3.6" `Quick test_segments_lemma_3_6;
          Alcotest.test_case "recomputing trace" `Quick
            test_segments_on_rematerialized_trace;
          Alcotest.test_case "odd r ceiling" `Quick test_segments_odd_r_ceiling;
        ] );
      ( "par_exec",
        [
          Alcotest.test_case "sequential free" `Quick test_par_exec_sequential_is_free;
          Alcotest.test_case "conservation" `Quick test_par_exec_conservation;
          Alcotest.test_case "caching" `Quick test_par_exec_caching;
          Alcotest.test_case "vs memind bound" `Quick test_par_exec_vs_memind_bound;
          Alcotest.test_case "strong scaling" `Quick test_par_exec_strong_scaling;
          Alcotest.test_case "validation" `Quick test_par_exec_validation;
          Alcotest.test_case "limited memory" `Quick test_par_exec_limited_memory;
          Alcotest.test_case "memory monotone" `Quick test_par_exec_limited_monotone;
          Alcotest.test_case "limited counters exact" `Quick
            test_par_exec_limited_counters_exact;
          Alcotest.test_case "census vs list reference" `Quick
            test_par_exec_census_reference;
          Alcotest.test_case "bfs first-claim" `Quick test_bfs_assignment_first_claim;
          Alcotest.test_case "bfs properties" `Quick
            test_bfs_assignment_properties;
          Alcotest.test_case "static cross-check" `Quick
            test_par_exec_static_cross_check;
        ] );
      ( "differential",
        [
          Alcotest.test_case "random workloads" `Quick
            test_schedulers_differential_random;
        ] );
      ( "bugfixes",
        [
          Alcotest.test_case "remat flop cap" `Quick
            test_remat_flop_cap_never_overshoots;
          Alcotest.test_case "belady clean tie-break" `Quick
            test_belady_tie_prefers_clean;
          Alcotest.test_case "hybrid all-false = lru" `Quick
            test_hybrid_all_false_is_lru;
          Alcotest.test_case "hybrid differential" `Quick
            test_hybrid_differential_random;
        ] );
      ( "belady_ref",
        [
          Alcotest.test_case "random DAGs" `Quick test_belady_reference_random;
          Alcotest.test_case "CDAGs" `Quick test_belady_reference_cdags;
        ] );
      ( "allocation",
        [ Alcotest.test_case "schedulers" `Quick test_schedulers_allocation ] );
      ( "parallel",
        [
          Alcotest.test_case "cannon" `Quick test_cannon;
          Alcotest.test_case "3d" `Quick test_3d;
          Alcotest.test_case "grid 3d" `Quick test_grid_3d;
          Alcotest.test_case "grid 3d degenerate" `Quick
            test_grid_3d_rejects_degenerate;
          Alcotest.test_case "caps schedule boundaries" `Quick
            test_caps_schedule_boundaries;
          Alcotest.test_case "grid boundaries" `Quick
            test_parallel_grid_boundaries;
          Alcotest.test_case "caps regimes" `Quick test_caps_regimes;
          Alcotest.test_case "caps vs bounds" `Quick test_caps_tracks_bounds;
          Alcotest.test_case "strong scaling" `Quick test_caps_strong_scaling_monotone;
        ] );
    ]
