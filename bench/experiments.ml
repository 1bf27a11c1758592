(* The experiment registry: every table and figure of the paper as a
   named experiment (see DESIGN.md's experiment index). Each experiment
   writes structured rows — params identify the data point, metrics
   carry what was measured — into an Fmm_obs.Metrics registry instead
   of printing; the sinks (Fmm_obs.Sink) render them as the classic
   ASCII tables, as BENCH_*.json, or as a baseline regression diff.

   Ids:
     T1      Table I lower bounds + simulator cross-check
     F1      Figure 1: the base CDAG census (+ DOT export)
     F2      Figure 2: encoder graphs and the Lemma 3.1-3.3 battery
     F3      Figure 3 / Lemma 3.11: disjoint-path counts vs the bound
     L36     Lemma 3.6: per-segment I/O of real schedules
     L37     Lemma 3.7: exact min dominators vs |Z|/2
     DEEP    the full Engine.deep_check_algorithm battery on the domain pool
     TH1seq  Theorem 1.1, sequential: measured I/O vs bound over (n, M)
     TH1par  Theorem 1.1, parallel: both regimes, crossover, executed BFS
     TH4     Theorem 4.1: alternative basis
     RC      recomputation: exact pebbling + rematerializing scheduler
     CO      leading coefficients 7 -> 6 -> 5
     HK      Hopcroft-Kerr checks and 6-mult search
     BS      basis search (Karstadt-Schwartz sparsity)
     L310    Lemma 3.10: disjoint-union undominated inputs
     FFT     Table I last row: butterfly CDAG
     LU      Section V conjecture: direct linear algebra
     WA      Section V: write-avoiding / NVM asymmetry
     OPT1    optimizer smoke: Strassen H^{8x8}, fixed seed, 2 iterations
     OPT2    optimizer at depth: Strassen H^{16x16} at M = 64
     OPT3    optimizer on the FFT butterfly (generic hot windows)
     AN1     certifier: static MAXLIVE / I/O lower bound vs measured policies
     AN2     incremental legality oracle vs full replay (byte-identical search)
     FT1     fault injection: fault-free parity with the plain executor
     FT2     fault injection: single-failure overhead per recovery policy
     FT3     fault injection: overhead vs failure count (recompute policy)
     IC1     implicit CDAG: censuses + streaming segment I/O at n = 256
     IC2     implicit CDAG: streaming MAXLIVE + exact bound arithmetic
     NE1     numeric executor: schedules run on real matrices vs predictions
     NE2     numeric kernels: Strassen-vs-classical float64 crossover sweep
     HY1     hybrid CDAGs: full lint/certify/execute battery per cutoff
     HY2     hybrid sweep: measured I/O vs De Stefani bounds, optimal cutoffs
     CS1     COSMA generator smoke: split vs BFS on Strassen n = 16 + grid search
     CS2     COSMA acceptance: splits vs BFS across (P, M), registry gate, faults
     PERF    bechamel kernel timings

   Rows carry a "ratio" metric wherever the paper compares a measured
   quantity against a bound; those are exactly the values `fmmlab bench
   --baseline` gates on. *)

module A = Fmm_bilinear.Algorithm
module S = Fmm_bilinear.Strassen
module AB = Fmm_bilinear.Alt_basis
module MQ = Fmm_matrix.Matrix.Q
module MI = Fmm_matrix.Matrix.I
module Cd = Fmm_cdag.Cdag
module Enc = Fmm_cdag.Encoder
module EL = Fmm_lemmas.Encoder_lemmas
module HK = Fmm_lemmas.Hopcroft_kerr
module DL = Fmm_lemmas.Dominator_lemma
module PL = Fmm_lemmas.Paths_lemma
module B = Fmm_bounds.Bounds
module Ord = Fmm_machine.Orders
module Sch = Fmm_machine.Schedulers
module Tr = Fmm_machine.Trace
module Seg = Fmm_machine.Segments
module Par = Fmm_machine.Par_model
module PE = Fmm_machine.Par_exec
module Pb = Fmm_pebble.Pebble
module Pd = Fmm_pebble.Pebble_dags
module C = Fmm_util.Combinat
module Obs = Fmm_obs.Metrics
module Exp = Fmm_obs.Experiment

let i x = Obs.Int x
let f x = Obs.Float x
let s x = Obs.Str x
let mark ok = s (if ok then "ok" else "FAIL")

(* When `fmmlab bench --jobs N` runs experiments on the domain pool,
   bodies that fan out their own lemma samples (DEEP, L37) read the
   level from here; everything they produce is deterministic at any
   level, so this knob only moves wall clocks. *)
let inner_jobs = Atomic.make 1
let set_jobs n = Atomic.set inner_jobs (max 1 n)
let jobs () = Atomic.get inner_jobs

(* Cache built CDAGs/orders: several experiments reuse them. Keys are
   structural fingerprints, not display names — two algorithms sharing
   a name (e.g. basis-search variants of "Strassen") must never alias
   each other's CDAGs. The caches are the only state shared between
   experiment bodies, so they are mutex-guarded (experiments run
   concurrently under --jobs). The value is built outside the lock —
   builds are deterministic in the key, so a racing duplicate build is
   wasted work, never wrong results — and the first finished build
   wins. *)
let cache_lock = Mutex.create ()

let cached tbl key build =
  let found =
    Mutex.lock cache_lock;
    Fun.protect
      ~finally:(fun () -> Mutex.unlock cache_lock)
      (fun () -> Hashtbl.find_opt tbl key)
  in
  match found with
  | Some v -> v
  | None ->
    let v = build () in
    Mutex.lock cache_lock;
    Fun.protect
      ~finally:(fun () -> Mutex.unlock cache_lock)
      (fun () ->
        match Hashtbl.find_opt tbl key with
        | Some v' -> v'
        | None ->
          Hashtbl.replace tbl key v;
          v)

let cdag_cache : (string * int, Cd.t) Hashtbl.t = Hashtbl.create 8

let cdag alg n =
  cached cdag_cache (A.fingerprint alg, n) (fun () -> Cd.build alg ~n)

let order_cache : (string * int, int list) Hashtbl.t = Hashtbl.create 8

let dfs_order alg n =
  cached order_cache (A.fingerprint alg, n) (fun () ->
      Ord.recursive_dfs (cdag alg n))

let work alg n = Fmm_machine.Workload.of_cdag (cdag alg n)

let lru_io alg n m =
  Tr.io (Sch.run_lru (work alg n) ~cache_size:m (dfs_order alg n)).Sch.counters

let registry = Exp.Registry.create ()
let define = Exp.Registry.define registry

(* ----- T1: Table I ----- *)

let _t1 =
  define ~id:"T1" ~title:"Table I - known lower bounds"
    ~doc:"The Table I rows plus a simulator cross-check of the bounds."
    (fun m ->
      let section = "Table I rows (n=4096, M=4096, P=49)" in
      List.iter
        (fun row ->
          Obs.rowf m ~section
            ~params:[ ("algorithm", s row.B.algorithm) ]
            [
              ("omega0", f row.B.omega0);
              ("memdep", f (row.B.memdep ~n:4096 ~m:4096 ~p:49));
              ("memind", f (row.B.memind ~n:4096 ~p:49));
              ("no-recomp", s row.B.no_recomp_citations);
              ("with-recomp", s (B.recomputation_status_string row.B.with_recomp));
            ])
        B.table1_rows;
      Obs.rowf m ~section
        ~params:[ ("algorithm", s "Rectangular <2,2,3;11>, t=6") ]
        [
          ("omega0", f (A.omega0 (A.classical ~n:2 ~m:2 ~k:3)));
          ("memdep", f (B.rectangular ~m0:2 ~p0:3 ~q:11 ~t:6 ~m:4096 ~p:49));
          ("no-recomp", s "[22]");
          ("with-recomp", s "open");
        ];
      Obs.rowf m ~section
        ~params:[ ("algorithm", s "FFT") ]
        [
          ("memdep", f (B.fft_memdep ~n:4096 ~m:4096 ~p:49));
          ("memind", f (B.fft_memind ~n:4096 ~p:49));
          ("no-recomp", s "[12],[5],[11]");
          ("with-recomp", s "[13]");
        ];
      (* simulator cross-check: measured I/O of real schedules vs the
         corresponding bound; ratio must be >= 1 and roughly flat in M
         (same exponent). *)
      let section = "simulator cross-check (n=16, LRU on recursive order)" in
      List.iter
        (fun (alg, bound_fn) ->
          List.iter
            (fun mm ->
              let io = Obs.time m "simulate" (fun () -> lru_io alg 16 mm) in
              let bound = bound_fn ~m:mm in
              Obs.rowf m ~section
                ~params:[ ("algorithm", s (A.name alg)); ("M", i mm) ]
                [
                  ("measured", i io);
                  ("bound", f bound);
                  ("ratio", f (float_of_int io /. bound));
                ])
            [ 16; 64; 256 ])
        [
          (S.strassen, fun ~m -> B.fast_sequential ~n:16 ~m ());
          (S.classical_2x2, fun ~m -> B.classical_memdep ~n:16 ~m ~p:1);
        ])

(* ----- F1: Figure 1 ----- *)

let _f1 =
  define ~id:"F1" ~title:"Figure 1 - the CDAG of Strassen's base algorithm"
    (fun m ->
      let section = "H^{2x2} census per algorithm" in
      List.iter
        (fun alg ->
          let st = Cd.stats (cdag alg 2) in
          let g k = i (List.assoc k st) in
          Obs.rowf m ~section
            ~params:[ ("algorithm", s (A.name alg)) ]
            [
              ("vertices", g "vertices");
              ("edges", g "edges");
              ("inputs", g "inputs");
              ("encA", g "enc_a");
              ("encB", g "enc_b");
              ("mult", g "mult");
              ("dec", g "dec");
            ])
        [ S.strassen; S.winograd; AB.ks_core; S.classical_2x2 ];
      let dot = Cd.to_dot (cdag S.strassen 2) in
      let oc = open_out "fig1_strassen_base_cdag.dot" in
      output_string oc dot;
      close_out oc;
      Obs.gauge m "fig1_dot_bytes" (float_of_int (String.length dot));
      Obs.note m
        (Printf.sprintf "Figure 1 DOT written to fig1_strassen_base_cdag.dot (%d bytes)"
           (String.length dot));
      (* Lemma 2.2 check across sizes *)
      let section = "Lemma 2.2: |V_out(SUB_H^{rxr})| = (n/r)^{log2 7} r^2" in
      List.iter
        (fun n ->
          let l = C.log2_exact n in
          for j = 0 to l do
            let r = C.pow_int 2 j in
            Obs.rowf m ~section
              ~params:[ ("n", i n); ("r", i r) ]
              [
                ("measured", i (List.length (Cd.sub_outputs (cdag S.strassen n) ~r)));
                ("formula", i (C.pow_int 7 (l - j) * r * r));
              ]
          done)
        [ 4; 8 ])

(* ----- F2: Figure 2 ----- *)

let _f2 =
  define ~id:"F2" ~title:"Figure 2 - encoder graphs and Lemmas 3.1-3.3"
    (fun m ->
      let dot =
        Fmm_graph.Digraph.to_dot ~name:"EncA"
          (Enc.encoder_digraph S.strassen Enc.A_side)
      in
      let oc = open_out "fig2_strassen_encoder.dot" in
      output_string oc dot;
      close_out oc;
      Obs.note m "Figure 2 DOT written to fig2_strassen_encoder.dot";
      let section = "lemma battery (exhaustive over all 127 subsets Y')" in
      List.iter
        (fun alg ->
          List.iter
            (fun (side, side_name) ->
              let g = Enc.encoder_bipartite alg side in
              let chk r = mark r.EL.holds in
              Obs.rowf m ~section
                ~params:[ ("algorithm", s (A.name alg)); ("side", s side_name) ]
                [
                  ("3.1", chk (EL.check_lemma_3_1 g));
                  ("3.1-Hall", chk (EL.check_neighbor_count_bound g));
                  ("3.2", chk (EL.check_lemma_3_2 g));
                  ("3.3", chk (EL.check_lemma_3_3 g));
                ])
            [ (Enc.A_side, "A"); (Enc.B_side, "B") ])
        [ S.strassen; S.winograd; S.winograd_transposed; AB.ks_core; S.classical_2x2 ];
      Obs.note m
        "(classical <2,2,2;8> is the negative control: it is not a 7-multiplication";
      Obs.note m
        " algorithm and Lemmas 3.1/3.3 correctly fail on its encoder)";
      (* expansion profiles: the [8] route beside the Lemma 3.1 curve *)
      let section = "small-set expansion of encoder graphs (A side)" in
      List.iter
        (fun alg ->
          let p = Fmm_lemmas.Expansion.profile alg Enc.A_side in
          let ms =
            List.map (fun (_, _, mm, _) -> mm) (Fmm_lemmas.Expansion.rows p)
          in
          Obs.rowf m ~section
            ~params:[ ("algorithm", s (A.name alg)) ]
            (List.mapi (fun idx mm -> (Printf.sprintf "k=%d" (idx + 1), i mm)) ms
            @ [ ("lemma 3.1 curve", s "1,2,2,3,3,4,4") ]))
        [ S.strassen; S.winograd; AB.ks_core ];
      (* generality sweep: all {I,J}-conjugates of Strassen and Winograd *)
      let total = ref 0 and passed = ref 0 in
      List.iter
        (fun base ->
          List.iter
            (fun alg ->
              incr total;
              if (Fmm_lemmas.Engine.check_algorithm alg).Fmm_lemmas.Engine.all_ok
              then incr passed)
            (A.conjugates_2x2 base))
        [ S.strassen; S.winograd ];
      Obs.rowf m ~section:"de Groote conjugate sweep" ~params:[]
        [ ("passed", i !passed); ("total", i !total) ];
      Obs.note m
        (Printf.sprintf "generality: %d/%d de Groote conjugates pass the full battery"
           !passed !total))

(* ----- F3: Figure 3 / Lemma 3.11 ----- *)

let _f3 =
  define ~id:"F3" ~title:"Figure 3 / Lemma 3.11 - vertex-disjoint paths"
    (fun m ->
      let section =
        "max disjoint paths vs bound 2r*sqrt(|Z|-2|Gamma|) (Strassen CDAGs)"
      in
      List.iter
        (fun (n, r, zs) ->
          List.iter
            (fun (z, gamma) ->
              let smp =
                PL.sample (cdag S.strassen n) ~r ~z_size:z ~gamma_size:gamma
                  ~seed:(z + (3 * gamma))
              in
              Obs.rowf m ~section
                ~params:
                  [
                    ("n", i n);
                    ("r", i r);
                    ("|Z|", i smp.PL.z_size);
                    ("|Gamma|", i smp.PL.gamma_size);
                  ]
                [
                  ("paths", i smp.PL.disjoint_paths);
                  ("bound", f smp.PL.bound);
                  ("holds", mark smp.PL.holds);
                ])
            zs)
        [
          (4, 2, [ (4, 0); (8, 2); (12, 4); (16, 6) ]);
          (8, 2, [ (16, 0); (32, 8); (48, 16) ]);
          (8, 4, [ (16, 0); (32, 8) ]);
        ])

(* ----- L36: Lemma 3.6 segments ----- *)

let _l36 =
  define ~id:"L36" ~title:"Lemma 3.6 - per-segment I/O of real schedules"
    (fun m ->
      let section =
        "segments of 4M' first-time SUB-output computations (Strassen)"
      in
      let add n mm policy trace analysis_m r =
        let a = Seg.analyze (cdag S.strassen n) ~cache_size:analysis_m ~r trace in
        let fulls = List.length (Seg.full_segments a) in
        Obs.rowf m ~section
          ~params:
            [ ("n", i n); ("M", i mm); ("policy", s policy); ("r", i r) ]
          ([
             ("quota", i a.Seg.quota);
             ("full segs", i fulls);
           ]
          @ (match Seg.min_io_full_segments a with
            | Some x -> [ ("min seg I/O", i x) ]
            | None -> [])
          @ [
              ("bound", i a.Seg.bound);
              ("holds", mark (Seg.lemma_3_6_holds a));
            ])
      in
      let lru n mm =
        (Sch.run_lru (work S.strassen n) ~cache_size:mm (dfs_order S.strassen n)).Sch.trace
      in
      add 8 8 "LRU" (lru 8 8) 8 8;
      add 16 8 "LRU" (lru 16 8) 8 8;
      add 16 16 "LRU" (lru 16 16) 16 16;
      add 16 64 "LRU" (lru 16 64) 16 16;
      let rem n mm =
        (Sch.run_rematerialize (work S.strassen n) ~cache_size:mm (dfs_order S.strassen n)).Sch.trace
      in
      add 16 48 "remat" (rem 16 48) 48 16;
      Obs.note m "(bound = r^2/2 - M; a negative bound means the lemma is vacuous there,";
      Obs.note m " exactly as in the paper: it bites once r = 2 sqrt(M))")

(* ----- L37: Lemma 3.7 dominators ----- *)

let _l37 =
  define ~id:"L37" ~title:"Lemma 3.7 - exact minimum dominator sets"
    (fun m ->
      let section = "min dominator of random Z (|Z| = r^2) in H^{nxn}" in
      List.iter
        (fun (alg, n, r) ->
          let samples =
            Obs.time m "min_dominator" (fun () ->
                DL.sample_min_dominators ~jobs:(jobs ()) (cdag alg n) ~r
                  ~trials:8 ~seed:7)
          in
          let worst =
            List.fold_left (fun acc smp -> min acc smp.DL.min_dominator) max_int samples
          in
          Obs.rowf m ~section
            ~params:[ ("algorithm", s (A.name alg)); ("n", i n); ("r", i r) ]
            [
              ("samples", i (List.length samples));
              ("min |Gamma|", i worst);
              ("lemma bound", i (r * r / 2));
            ])
        [
          (S.strassen, 4, 2); (S.strassen, 4, 4); (S.strassen, 8, 2);
          (S.strassen, 8, 4); (S.winograd, 4, 2); (S.winograd, 4, 4);
          (AB.ks_core, 4, 2); (AB.ks_core, 4, 4);
        ])

(* ----- DEEP: the full lemma battery on the domain pool ----- *)

let _deep =
  define ~id:"DEEP"
    ~title:"deep lemma battery (Engine.deep_check_algorithm on the domain pool)"
    ~doc:
      "The Section III battery end to end per algorithm: encoder lemmas, the \
       Lemma 2.2 census, and the exact max-flow samples of Lemmas 3.7/3.11, \
       fanned out on the Fmm_par pool. Rows are identical at any --jobs; \
       only the deep_battery_s timer and the experiment wall clock move."
    (fun m ->
      let section = "Engine.deep_check_algorithm (per-sample derived seeds)" in
      List.iter
        (fun (alg, n, trials) ->
          let d =
            Obs.time m "deep_battery" (fun () ->
                Fmm_lemmas.Engine.deep_check_algorithm ~n ~trials ~seed:7
                  ~jobs:(jobs ()) alg)
          in
          let module Eng = Fmm_lemmas.Engine in
          let worst_dom =
            List.fold_left
              (fun acc smp -> min acc smp.DL.min_dominator)
              max_int d.Eng.lemma_3_7
          in
          let worst_paths =
            List.fold_left
              (fun acc smp -> min acc smp.PL.disjoint_paths)
              max_int d.Eng.lemma_3_11
          in
          Obs.rowf m ~section
            ~params:[ ("algorithm", s (A.name alg)); ("n", i n) ]
            [
              ("3.7 samples", i (List.length d.Eng.lemma_3_7));
              ("min |Gamma|", i worst_dom);
              ("3.11 samples", i (List.length d.Eng.lemma_3_11));
              ("min paths", i worst_paths);
              ("2.2", mark d.Eng.lemma_2_2_ok);
              ("deep ok", mark d.Eng.deep_ok);
            ])
        [
          (S.strassen, 16, 24); (S.winograd, 16, 24); (AB.ks_core, 4, 16);
          (S.classical_2x2, 4, 16);
        ];
      Obs.note m
        "(classical <2,2,2;8> flags deep ok = FAIL through its encoder lemmas,";
      Obs.note m
        " exactly as in F2 — its CDAG-level 3.7/3.11 samples still hold)")

(* ----- TH1seq ----- *)

let _th1seq =
  define ~id:"TH1seq"
    ~title:"Theorem 1.1 sequential - measured I/O vs (n/sqrt M)^w M"
    (fun m ->
      let section = "LRU + recursive order (Strassen)" in
      List.iter
        (fun n ->
          List.iter
            (fun mm ->
              let io = Obs.time m "simulate" (fun () -> lru_io S.strassen n mm) in
              let bound = B.fast_sequential ~n ~m:mm () in
              Obs.rowf m ~section
                ~params:[ ("n", i n); ("M", i mm) ]
                [
                  ("measured", i io);
                  ("bound", f bound);
                  ("ratio", f (float_of_int io /. bound));
                ])
            [ 16; 64; 256 ])
        [ 8; 16; 32 ];
      Obs.note m "(ratio roughly flat across n at fixed M => measured exponent matches";
      Obs.note m " the bound's omega0; ratio >= 1 everywhere: no schedule beat the bound)";
      (* Table I row 4: a general (non-2x2) base case, <6,6,6;189> *)
      let section = "general base case <6,6,6;189>, omega0 = log_6 189 = 2.924" in
      let g_alg = S.strassen_x_classical3 in
      let g_omega = A.omega0 g_alg in
      List.iter
        (fun n ->
          List.iter
            (fun mm ->
              let io = Obs.time m "simulate" (fun () -> lru_io g_alg n mm) in
              let bound = B.fast_memdep ~omega0:g_omega ~n ~m:mm ~p:1 () in
              Obs.rowf m ~section
                ~params:[ ("n", i n); ("M", i mm) ]
                [
                  ("measured", i io);
                  ("bound", f bound);
                  ("ratio", f (float_of_int io /. bound));
                ])
            [ 64; 256 ])
        [ 6; 36 ];
      Obs.note m "(row 4 of Table I: bounds known only WITHOUT recomputation — extending";
      Obs.note m " them to recomputation is the open problem in the paper's Section V)")

(* ----- TH1par ----- *)

let _th1par =
  define ~id:"TH1par"
    ~title:"Theorem 1.1 parallel - two regimes, the crossover, and the executed BFS runs"
    (fun mreg ->
      let n = 1 lsl 12 in
      List.iter
        (fun m ->
          let section =
            Printf.sprintf "n = %d, M = %d (crossover P* = %d)" n m
              (B.crossover_p ~n ~m ())
          in
          List.iter
            (fun p ->
              let md = B.fast_memdep ~n ~m ~p () in
              let mi = B.fast_memind ~n ~p () in
              let caps = Par.caps_words ~n ~p ~m in
              let bfs, dfs = Par.caps_schedule ~n ~p ~m in
              Obs.rowf mreg ~section
                ~params:[ ("P", i p) ]
                [
                  ("memdep", f md);
                  ("memind", f mi);
                  ("max", f (Float.max md mi));
                  ("caps sim", f caps);
                  ("caps/max", f (caps /. Float.max md mi));
                  ("bfs/dfs", s (Printf.sprintf "%d/%d" bfs dfs));
                ])
            [ 7; 49; 343; 2401; 16807 ])
        [ 4096; 65536 ];
      (* measured (executed) parallel communication vs the
         memory-independent bound: the word-level distributed executor
         on BFS partitions *)
      let section = "executed BFS-partitioned Strassen vs memind bound n^2/P^{2/w}" in
      List.iter
        (fun (n, depth) ->
          let c = cdag S.strassen n in
          let r = Obs.time mreg "par_exec" (fun () -> PE.strassen_bfs_experiment c ~depth) in
          (* bench-level assertion: the memory-limited executor with
             unbounded memory must reproduce the unlimited executor's
             counters EXACTLY — the invariant that pinned the
             run_limited occupancy-tracking rewrite *)
          let w = Fmm_machine.Workload.of_cdag c in
          let assignment = PE.bfs_assignment c ~depth ~procs:r.PE.procs in
          let lim =
            Obs.time mreg "par_exec_limited" (fun () ->
                PE.run_limited w ~procs:r.PE.procs ~assignment ~local_memory:max_int)
          in
          if
            lim.PE.total_words <> r.PE.total_words
            || lim.PE.sent <> r.PE.sent
            || lim.PE.received <> r.PE.received
          then
            failwith
              (Printf.sprintf
                 "TH1par: run_limited(max_int) diverged from run at n=%d depth=%d \
                  (%d vs %d words)"
                 n depth lim.PE.total_words r.PE.total_words);
          Obs.incr mreg "limited_counter_checks";
          let bound = B.fast_memind ~n ~p:r.PE.procs () in
          Obs.rowf mreg ~section
            ~params:[ ("n", i n); ("P", i r.PE.procs) ]
            [
              ("total words", i r.PE.total_words);
              ("max words/proc", i r.PE.max_words);
              ("bound", f bound);
              ("ratio", f (float_of_int r.PE.max_words /. bound));
            ])
        [ (8, 1); (16, 1); (16, 2); (32, 1); (32, 2) ];
      Obs.note mreg "(ratio stable in n at fixed P: the executed communication scales";
      Obs.note mreg " with the memory-independent exponent 2/omega0 of Theorem 1.1)")

(* ----- TH4 ----- *)

let _th4 =
  define ~id:"TH4" ~title:"Theorem 4.1 - alternative basis (Karstadt-Schwartz)"
    (fun m ->
      let section = "transform share and I/O bound for the KS algorithm" in
      List.iter
        (fun n ->
          let rng = Fmm_util.Prng.create ~seed:n in
          let a = MQ.random ~rng ~rows:n ~cols:n ~range:5 in
          let b = MQ.random ~rng ~rows:n ~cols:n ~range:5 in
          let _, mul_c, tr_c = AB.Transform_q.multiply AB.ks_winograd a b in
          let mm = 4 * n in
          let flat = AB.flatten AB.ks_winograd in
          let io = lru_io flat n mm in
          let bound = B.fast_sequential ~n ~m:mm () in
          Obs.rowf m ~section
            ~params:[ ("n", i n) ]
            [
              ("transform adds", i tr_c.A.Apply_q.adds);
              ("bilinear adds", i mul_c.A.Apply_q.adds);
              ( "share",
                f (float_of_int tr_c.A.Apply_q.adds /. float_of_int mul_c.A.Apply_q.adds) );
              ("M", i mm);
              ("I/O", i io);
              ("bound", f bound);
              ("ratio", f (float_of_int io /. bound));
            ])
        [ 8; 16; 32 ];
      Obs.note m "(share column -> 0: the premise of Theorem 4.1; ratio >= 1: the bound";
      Obs.note m " holds for the alternative-basis algorithm too)";
      (* the full Algorithm 1 pipeline as ONE CDAG, executed end to end:
         stage shares of actual Compute events *)
      let section = "full ABMM pipeline CDAG: compute-event share per stage" in
      List.iter
        (fun n ->
          let ab = Fmm_abmm.Abmm_cdag.build AB.ks_winograd ~n in
          let w = Fmm_abmm.Abmm_cdag.workload ab in
          let order =
            match Fmm_graph.Digraph.topo_sort ab.Fmm_abmm.Abmm_cdag.graph with
            | Some o ->
              List.filter
                (fun v -> not ab.Fmm_abmm.Abmm_cdag.is_primary_input.(v))
                o
            | None -> failwith "cycle"
          in
          let res = Sch.run_lru w ~cache_size:(8 * n) order in
          let shares = Fmm_abmm.Abmm_cdag.stage_compute_shares ab res.Sch.trace in
          let get st =
            match List.find (fun (name, _, _) -> name = st) shares with
            | _, _, x -> x
          in
          Obs.rowf m ~section
            ~params:[ ("n", i n) ]
            [
              ("phi", f (get "phi"));
              ("psi", f (get "psi"));
              ("core", f (get "core"));
              ("nu-inv", f (get "nu-inv"));
              ("transforms total", f (get "phi" +. get "psi" +. get "nu-inv"));
            ])
        [ 4; 8; 16 ])

(* ----- RC ----- *)

let _rc =
  define ~id:"RC"
    ~title:"recomputation - exact pebbling and the rematerializing scheduler"
    (fun m ->
      let section = "exact optimal red-blue pebbling I/O" in
      let add name red game =
        match Obs.time m "pebble" (fun () -> Pb.compare_recomputation game) with
        | Some w, Some wo ->
          Obs.rowf m ~section
            ~params:[ ("instance", s name); ("red", i red) ]
            [
              ("with recomp", i w);
              ("without", i wo);
              ("separation", s (if w < wo then "YES" else "no"));
            ]
        | _ ->
          Obs.rowf m ~section
            ~params:[ ("instance", s name); ("red", i red) ]
            [ ("separation", s "exhausted") ]
      in
      add "Savage-style DAG" 3 (Pd.recomputation_wins ());
      add "Strassen encoder A" 3 (Pd.encoder_game S.strassen Enc.A_side ~red_limit:3);
      add "Strassen encoder A" 5 (Pd.encoder_game S.strassen Enc.A_side ~red_limit:5);
      add "Winograd encoder A" 5 (Pd.encoder_game S.winograd Enc.A_side ~red_limit:5);
      add "KS-core encoder A" 4 (Pd.encoder_game AB.ks_core Enc.A_side ~red_limit:4);
      let c2 = cdag S.strassen 2 in
      add "H^{2x2} C21 fragment" 4
        (Pd.of_cdag_outputs c2 ~outputs:[ (Cd.outputs c2).(2) ] ~red_limit:4);
      add "H^{2x2} C12 fragment" 4
        (Pd.of_cdag_outputs c2 ~outputs:[ (Cd.outputs c2).(1) ] ~red_limit:4);
      let section = "spilling vs rematerializing on H^{16x16} (Strassen)" in
      List.iter
        (fun mm ->
          let lru =
            Sch.run_lru (work S.strassen 16) ~cache_size:mm (dfs_order S.strassen 16)
          in
          let rem =
            try
              Some
                (Sch.run_rematerialize (work S.strassen 16) ~cache_size:mm
                   (dfs_order S.strassen 16))
            with Failure _ | Sch.Cache_too_small _ -> None
          in
          let bound = B.fast_sequential ~n:16 ~m:mm () in
          let spill_io = Tr.io lru.Sch.counters in
          Obs.rowf m ~section
            ~params:[ ("M", i mm) ]
            ([
               ("spill I/O", i spill_io);
               ("spill ratio", f (float_of_int spill_io /. bound));
             ]
            @ (match rem with
              | Some r ->
                let rio = Tr.io r.Sch.counters in
                [
                  ("remat I/O", i rio);
                  ("ratio", f (float_of_int rio /. bound));
                ]
              | None -> [])
            @ [ ("spill flops", i lru.Sch.counters.Tr.computes) ]
            @ (match rem with
              | Some r -> [ ("remat flops", i r.Sch.counters.Tr.computes) ]
              | None -> [])
            @ [ ("bound", f bound) ]))
        [ 48; 64; 128; 256 ];
      Obs.note m
        "(remat I/O ratio >= 1 at every M: recomputation never beats the bound —";
      Obs.note m " the paper's headline, measured)")

(* ----- CO ----- *)

let _co =
  define ~id:"CO"
    ~title:"leading coefficients 7 -> 6 -> 5 (arith) and 10.5 -> 9 (I/O)"
    (fun m ->
      let section = "measured total ops (adds + mults) / n^{log2 7}" in
      let measured_total count n =
        let adds, mults = count n in
        float_of_int (adds + mults) /. (float_of_int n ** (log 7. /. log 2.))
      in
      let direct alg n =
        let rng = Fmm_util.Prng.create ~seed:n in
        let a = MI.random ~rng ~rows:n ~cols:n ~range:5 in
        let b = MI.random ~rng ~rows:n ~cols:n ~range:5 in
        let _, c = A.Apply_int.multiply alg a b in
        (c.A.Apply_int.adds, c.A.Apply_int.mults)
      in
      let winograd_reuse n =
        let rng = Fmm_util.Prng.create ~seed:n in
        let a = MI.random ~rng ~rows:n ~cols:n ~range:5 in
        let b = MI.random ~rng ~rows:n ~cols:n ~range:5 in
        let _, c = S.Winograd_reuse_int.multiply a b in
        (c.A.Apply_int.adds, c.A.Apply_int.mults)
      in
      let row name steps count =
        Obs.rowf m ~section
          ~params:[ ("algorithm", s name) ]
          [
            ("adds/step", i steps);
            ("closed-form c", f (B.leading_coefficient_of_adds ~adds_per_step:steps));
            ("n=16", f (measured_total count 16));
            ("n=32", f (measured_total count 32));
            ("n=64", f (measured_total count 64));
          ]
      in
      row "Strassen" (A.additions_per_step S.strassen) (direct S.strassen);
      row "Winograd (flattened)" (A.additions_per_step S.winograd) (direct S.winograd);
      row "Winograd (S/T reuse)" 15 winograd_reuse;
      row "KS core" (A.additions_per_step AB.ks_core) (direct AB.ks_core);
      Obs.note m "(the measured column converges to c - o(1): the paper's 7 -> 6 -> 5;";
      Obs.note m " Winograd's 6 requires the S/T reuse schedule, the KS core reaches";
      Obs.note m " coefficient 5 with no reuse at all)";
      let section = "I/O leading coefficients quoted in Section IV" in
      List.iter
        (fun (name, c) ->
          Obs.rowf m ~section
            ~params:[ ("algorithm", s name) ]
            [ ("paper constant", f c) ])
        B.io_leading_coefficients)

(* ----- HK ----- *)

let _hk =
  define ~id:"HK" ~title:"Hopcroft-Kerr (Lemma 3.4 / Corollary 3.5)"
    (fun m ->
      let section = "left operands in each forbidden set (max allowed = t - 6)" in
      List.iter
        (fun alg ->
          let checks = HK.check_algorithm alg in
          Obs.rowf m ~section
            ~params:[ ("algorithm", s (A.name alg)) ]
            (List.map2
               (fun (name, _) c -> (name, i c.HK.count))
               HK.forbidden_sets checks
            @ [ ("ok", mark (HK.all_ok checks)) ]))
        [ S.strassen; S.winograd; S.winograd_transposed; AB.ks_core; S.classical_2x2 ];
      let trials, found =
        Obs.time m "six_mult_search" (fun () ->
            HK.random_6mult_search ~trials:20_000 ~seed:11)
      in
      Obs.rowf m ~section:"randomized <2,2,2;6> search" ~params:[]
        [ ("candidates", i trials); ("found", s (if found then "FOUND - BUG!" else "none valid")) ];
      Obs.note m "(Hopcroft-Kerr: 7 multiplications are minimal for <2,2,2>)";
      Obs.rowf m ~section:"Strassen minus one product" ~params:[]
        [ ("unrepairable over Q", s (string_of_bool (HK.strassen_minus_one_is_unrepairable ()))) ])

(* ----- BS: basis search (the Karstadt-Schwartz optimization) ----- *)

let _bs =
  define ~id:"BS" ~title:"basis search - rediscovering Karstadt-Schwartz sparsity"
    (fun m ->
      let module BSx = Fmm_bilinear.Basis_search in
      let section = "unimodular hill-climb: nnz and adds/step of the searched core" in
      List.iter
        (fun alg ->
          let r = Obs.time m "basis_search" (fun () -> BSx.search ~seed:1 alg) in
          Obs.rowf m ~section
            ~params:[ ("algorithm", s (A.name alg)) ]
            [
              ("direct adds/step", i (A.additions_per_step alg));
              ("searched", i r.BSx.additions_per_step);
              ( "nnz U/V/W",
                s (Printf.sprintf "%d/%d/%d" r.BSx.nnz_u r.BSx.nnz_v r.BSx.nnz_w) );
              ( "coefficient",
                f (B.leading_coefficient_of_adds ~adds_per_step:r.BSx.additions_per_step)
              );
            ])
        [ S.strassen; S.winograd; S.winograd_transposed ];
      Obs.note m "(from Winograd the search reaches 12 additions/step = coefficient 5, the";
      Obs.note m " Karstadt-Schwartz result, without any hand-derivation)")

(* ----- L310: Lemma 3.10 (disjoint unions) ----- *)

let _l310 =
  define ~id:"L310" ~title:"Lemma 3.10 - undominated inputs of disjoint CDAG unions"
    (fun m ->
      let module DU = Fmm_lemmas.Disjoint_union_lemma in
      let section =
        "|I'| >= 2n sqrt(|O'| - 2|Gamma|) on q disjoint copies of H^{2x2}"
      in
      List.iter
        (fun (q, o, g) ->
          let u = DU.build_union S.strassen ~n:2 ~q in
          let smp = DU.sample u ~o_size:o ~gamma_size:g ~seed:(q + o + g) in
          Obs.rowf m ~section
            ~params:[ ("q", i q); ("|O'|", i o); ("|Gamma|", i g) ]
            [
              ("undominated", i smp.DU.undominated_inputs);
              ("bound", f smp.DU.bound);
              ("holds", mark smp.DU.holds);
            ])
        [ (1, 4, 0); (1, 4, 1); (3, 8, 2); (5, 12, 4); (8, 24, 8) ])

(* ----- FFT: Table I last row ----- *)

let _fft =
  define ~id:"FFT"
    ~title:"Table I last row - butterfly CDAG, measured I/O, recomputation"
    (fun m ->
      let module Bf = Fmm_fft.Butterfly in
      let section = "blocked FFT schedule vs n log n / log M bound" in
      List.iter
        (fun (n, mm) ->
          let bf = Bf.build ~n in
          let w = Bf.workload bf in
          let io =
            Tr.io
              (Sch.run_lru w ~cache_size:mm
                 (Bf.blocked_order bf ~block:(max 2 (mm / 4)))).Sch.counters
          in
          let bound = B.fft_memdep ~n ~m:mm ~p:1 in
          Obs.rowf m ~section
            ~params:[ ("n", i n); ("M", i mm) ]
            [
              ("measured", i io);
              ("bound", f bound);
              ("ratio", f (float_of_int io /. bound));
            ])
        [ (64, 8); (256, 8); (256, 32); (1024, 32); (1024, 128) ];
      (* recomputation on the FFT: [13]'s result in miniature *)
      (match
         Pb.compare_recomputation ~max_states:1_000_000
           (Bf.pebble_game ~n:4 ~red_limit:4)
       with
      | Some w, Some wo ->
        Obs.rowf m ~section:"FFT-4 exact pebbling" ~params:[]
          [
            ("with recomputation", i w);
            ("without", i wo);
            ("verdict", s (if w = wo then "equal, as [13] proves" else "SEPARATION?!"));
          ]
      | _ -> Obs.note m "FFT-4 pebbling: search exhausted");
      let bf = Bf.build ~n:64 in
      let w = Bf.workload bf in
      let lru = Sch.run_lru w ~cache_size:24 (Bf.blocked_order bf ~block:8) in
      let rem = Sch.run_rematerialize w ~cache_size:24 (Bf.blocked_order bf ~block:8) in
      Obs.rowf m ~section:"FFT-64 at M=24: spilling vs rematerializing" ~params:[]
        [
          ("spill io", i (Tr.io lru.Sch.counters));
          ("remat io", i (Tr.io rem.Sch.counters));
          ("spill computes", i lru.Sch.counters.Tr.computes);
          ("remat computes", i rem.Sch.counters.Tr.computes);
        ])

(* ----- LU: Section V conjecture - direct linear algebra ----- *)

let _lu =
  define ~id:"LU" ~title:"Section V conjecture - direct linear algebra"
    (fun m ->
      let module Lu = Fmm_lu.Lu_cdag in
      Obs.note m "The paper conjectures recomputation cannot reduce communication for";
      Obs.note m "direct linear algebra either. The LU-factorization CDAG testbed:";
      (* exact pebbling on the smallest instances *)
      (match
         Pb.compare_recomputation ~max_states:3_000_000
           (Lu.pebble_game ~n:3 ~red_limit:4)
       with
      | Some w, Some wo ->
        Obs.rowf m ~section:"LU(3) exact optimal pebbling (R=4)" ~params:[]
          [
            ("with recomputation", i w);
            ("without", i wo);
            ( "verdict",
              s
                (if w = wo then "equal - consistent with the conjecture"
                 else "SEPARATION?!") );
          ]
      | _ -> Obs.note m "LU(3) pebbling: exhausted");
      let section = "LU machine runs vs Omega(n^3/sqrt M)" in
      List.iter
        (fun (n, mm) ->
          let lu = Lu.build ~n in
          let w = Lu.workload lu in
          let order = Lu.elimination_order lu in
          let lru = Sch.run_lru w ~cache_size:mm order in
          let rem =
            (* rematerializing a deep elimination DAG explodes; cap the
               budget and skip the cell where it blows past it *)
            try Some (Sch.run_rematerialize ~max_flops:2_000_000 w ~cache_size:mm order)
            with Failure _ | Sch.Cache_too_small _ -> None
          in
          Obs.rowf m ~section
            ~params:[ ("n", i n); ("M", i mm) ]
            ([ ("spill I/O", i (Tr.io lru.Sch.counters)) ]
            @ (match rem with
              | Some r -> [ ("remat I/O", i (Tr.io r.Sch.counters)) ]
              | None -> [])
            @ [ ("bound", f (Lu.io_lower_bound ~n ~m:mm)) ]))
        [ (8, 16); (8, 64); (12, 64); (16, 64) ];
      Obs.note m "(rematerializing LU, like rematerializing fast MM, only ever costs more)")

(* ----- WA: Section V - write-avoiding / NVM asymmetry ----- *)

let _wa =
  define ~id:"WA" ~title:"Section V - trading recomputation for writes (NVM asymmetry)"
    (fun m ->
      Obs.note m "The paper's closing question: in NVM, writes cost more than reads;";
      Obs.note m "Blelloch et al. [26] show recomputation can reduce writes elsewhere.";
      Obs.note m "Here: the rematerializing schedule stores only outputs — minimal writes —";
      Obs.note m "at the price of many extra reads and flops.";
      let section = "reads/writes of spilling vs rematerializing (Strassen H^{16x16})" in
      List.iter
        (fun mm ->
          let add policy (res : Sch.result) =
            let c = res.Sch.counters in
            let cost w = c.Tr.loads + (w * c.Tr.stores) in
            Obs.rowf m ~section
              ~params:[ ("M", i mm); ("policy", s policy) ]
              [
                ("reads", i c.Tr.loads);
                ("writes", i c.Tr.stores);
                ("cost w=1", i (cost 1));
                ("cost w=10", i (cost 10));
                ("cost w=100", i (cost 100));
              ]
          in
          add "spill"
            (Sch.run_lru (work S.strassen 16) ~cache_size:mm (dfs_order S.strassen 16));
          add "remat"
            (Sch.run_rematerialize (work S.strassen 16) ~cache_size:mm
               (dfs_order S.strassen 16)))
        [ 64; 256 ];
      Obs.note m "(remat writes = 256 outputs only. At M = 256 and write cost 100 the";
      Obs.note m " rematerializing schedule WINS on weighted cost — recomputation can pay";
      Obs.note m " off under write/read asymmetry even though it never does unweighted:";
      Obs.note m " exactly the regime of the paper's closing open question [24]-[28])")

(* ----- OPT: the schedule optimizer vs the fixed policies ----- *)

(* Shared row shape for the OPT experiments: run a search, compare the
   best found schedule against the best feasible fixed policy and the
   relevant lower bound. "ratio" is a gated metric — the optimizer
   finding structurally worse schedules than before is a regression. *)
let opt_row m ~section ~params ~bound (r : Fmm_opt.Optimizer.report) =
  let module O = Fmm_opt.Optimizer in
  let fixed = List.filter_map snd r.O.baselines in
  let best_fixed = List.fold_left min max_int fixed in
  Obs.rowf m ~section ~params
    [
      ("best io", i r.O.best.O.io);
      ("best fixed", i best_fixed);
      ("gain", i (best_fixed - r.O.best.O.io));
      ("policy", s (O.policy_name r.O.best.O.candidate.O.policy));
      ("evaluated", i r.O.evaluated);
      ("checked", i r.O.accepted);
      ("ratio", f (float_of_int r.O.best.O.io /. bound));
      ( "verdict",
        mark
          (r.O.best.O.io <= best_fixed && float_of_int r.O.best.O.io >= bound)
      );
    ]

let _opt1 =
  define ~id:"OPT1" ~title:"optimizer smoke - Strassen H^{8x8}, 2 iterations"
    ~doc:
      "Fast fixed-seed beam search; the CI gate for the optimizer \
       subsystem. The verdict asserts the two-sided sandwich: best found \
       <= best fixed policy (by seeding) and >= the Theorem 1.1 bound (by \
       the theorem)."
    (fun m ->
      let module O = Fmm_opt.Optimizer in
      let section = "beam search vs fixed policies (Strassen, seed 1)" in
      List.iter
        (fun (n, mm, beam, iters) ->
          let r =
            Obs.time m (Printf.sprintf "search n=%d M=%d" n mm) (fun () ->
                O.optimize_cdag (cdag S.strassen n) ~cache_size:mm ~beam ~iters
                  ~seed:1 ~jobs:(jobs ()))
          in
          opt_row m ~section
            ~params:
              [ ("n", i n); ("M", i mm); ("beam", i beam); ("iters", i iters) ]
            ~bound:(B.fast_sequential ~n ~m:mm ()) r)
        [ (4, 16, 3, 2); (8, 32, 3, 2) ])

let _opt2 =
  define ~id:"OPT2"
    ~title:"optimizer at depth - Strassen H^{16x16} at M = 64"
    ~doc:
      "The acceptance configuration: the searched schedule must match or \
       beat LRU, Belady and rematerialization on the recursive order, and \
       its I/O still sits a constant factor above the recomputation-proof \
       Theorem 1.1 bound — rescheduling cannot close the gap."
    (fun m ->
      let module O = Fmm_opt.Optimizer in
      let section = "beam search vs fixed policies (Strassen, seed 1)" in
      let n = 16 and mm = 64 in
      let r =
        Obs.time m "search n=16 M=64" (fun () ->
            O.optimize_cdag (cdag S.strassen n) ~cache_size:mm ~beam:4 ~iters:4
              ~seed:1 ~jobs:(jobs ()))
      in
      opt_row m ~section
        ~params:[ ("n", i n); ("M", i mm); ("beam", i 4); ("iters", i 4) ]
        ~bound:(B.fast_sequential ~n ~m:mm ()) r;
      Obs.rowf m ~section:"best-I/O trajectory"
        ~params:[ ("n", i n); ("M", i mm) ]
        (List.mapi (fun it io -> (Printf.sprintf "it%d" it, i io)) r.O.history))

let _opt3 =
  define ~id:"OPT3" ~title:"optimizer on the butterfly - FFT-64 at M = 16"
    ~doc:
      "No bilinear CDAG here, so the reorder move falls back to generic \
       hot windows; seeds are the level and blocked orders. Ratio is \
       against the n log n / log M FFT bound."
    (fun m ->
      let module O = Fmm_opt.Optimizer in
      let module Bf = Fmm_fft.Butterfly in
      let n = 64 and mm = 16 in
      let bf = Bf.build ~n in
      let w = Bf.workload bf in
      let orders =
        [
          ("blocked", Bf.blocked_order bf ~block:(max 2 (mm / 4)));
          ("level", Bf.level_order bf);
        ]
      in
      let r =
        Obs.time m "search fft-64 M=16" (fun () ->
            O.search ~jobs:(jobs ()) ~beam:4 ~iters:4 ~seed:1 w ~cache_size:mm
              ~orders)
      in
      opt_row m ~section:"beam search vs fixed policies (butterfly, seed 1)"
        ~params:[ ("n", i n); ("M", i mm); ("beam", i 4); ("iters", i 4) ]
        ~bound:(B.fft_memdep ~n ~m:mm ~p:1) r)

(* ----- AN: the dataflow certifier and the incremental oracle ----- *)

let _an1 =
  define ~id:"AN1"
    ~title:"certifier - static MAXLIVE / I/O lower bound vs measured policies"
    ~doc:
      "Certify.run on several (algorithm, n, M) points: the static \
       min-cache from Dataflow.trace_profile must equal the dynamic peak \
       occupancy of every policy trace, and the interval-liveness I/O \
       lower bound must sit under every no-recomputation policy — the \
       sandwich lb <= belady <= lru, with rematerialization beside it. \
       The gated ratio is belady/lb: it drifting up means the bound got \
       looser or Belady got worse."
    (fun m ->
      let module Ct = Fmm_analysis.Certify in
      let section = "static vs dynamic certification (dfs order)" in
      List.iter
        (fun (alg, n, mm) ->
          let c =
            Obs.time m (Printf.sprintf "certify %s n=%d M=%d" (A.name alg) n mm)
              (fun () ->
                Ct.run ~jobs:(jobs ()) ~cdag:(cdag alg n) ~cache_size:mm
                  (work alg n) ~order:(dfs_order alg n))
          in
          let io name =
            match List.find_opt (fun r -> r.Ct.policy = name) c.Ct.rows with
            | Some r when r.Ct.feasible -> r.Ct.io
            | _ -> -1
          in
          let agree = List.for_all (fun r -> r.Ct.agree) c.Ct.rows in
          let lb = c.Ct.io_lower_bound in
          let belady = io "belady" in
          Obs.rowf m ~section
            ~params:[ ("algorithm", s (A.name alg)); ("n", i n); ("M", i mm) ]
            [
              ("maxlive", i c.Ct.maxlive);
              ("static lb", i lb);
              ("belady", i belady);
              ("lru", i (io "lru"));
              ("remat", i (io "remat"));
              ("ratio", f (float_of_int belady /. float_of_int lb));
              ("agree", mark agree);
              ("verdict", mark (Ct.certified c && belady >= lb));
            ])
        [
          (S.strassen, 8, 32);
          (S.strassen, 16, 64);
          (S.winograd, 8, 32);
          (AB.ks_core, 4, 16);
        ];
      Obs.note m
        "(the certifier itself errors on any static/dynamic disagreement — \
         'agree' failing would also fail the --certify CI gate)")

let _an2 =
  define ~id:"AN2"
    ~title:"incremental oracle - check_delta vs full replay in the beam search"
    ~doc:
      "The OPT2 configuration under both oracle modes. The oracle can \
       only veto, so the searches must coincide byte-for-byte: same best \
       schedule, same trajectory, same beam, same trace. The incremental \
       mode re-interprets only the mutated window of each admitted \
       schedule (plus one full pass per re-memoization); rows carry the \
       deterministic event accounting, while the wall-clock speedup goes \
       to the volatile _s scalars — timings are load-sensitive, registry \
       rows are not."
    (fun m ->
      let module O = Fmm_opt.Optimizer in
      let module Tc = Fmm_analysis.Trace_check in
      let module CM = Fmm_machine.Cache_machine in
      let n = 16 and mm = 64 in
      let c = cdag S.strassen n in
      let t0 = Unix.gettimeofday () in
      let full =
        O.optimize_cdag c ~cache_size:mm ~beam:3 ~iters:2 ~seed:1
          ~oracle_mode:O.Full_replay ~jobs:(jobs ())
      in
      let t1 = Unix.gettimeofday () in
      let inc =
        O.optimize_cdag c ~cache_size:mm ~beam:3 ~iters:2 ~seed:1
          ~oracle_mode:O.Incremental ~jobs:(jobs ())
      in
      let t2 = Unix.gettimeofday () in
      Obs.gauge m "search_full_replay_s" (t1 -. t0);
      Obs.gauge m "search_incremental_s" (t2 -. t1);
      let beam_key r =
        List.map (fun ev -> (ev.O.io, ev.O.candidate.O.provenance)) r.O.beam
      in
      let same =
        full.O.best.O.io = inc.O.best.O.io
        && full.O.best.O.candidate.O.provenance
           = inc.O.best.O.candidate.O.provenance
        && full.O.history = inc.O.history
        && full.O.accepted = inc.O.accepted
        && beam_key full = beam_key inc
        && full.O.best.O.result.Sch.trace = inc.O.best.O.result.Sch.trace
      in
      let bound = B.fast_sequential ~n ~m:mm () in
      Obs.rowf m ~section:"oracle modes (Strassen H^{16x16}, M = 64, seed 1)"
        ~params:[ ("n", i n); ("M", i mm); ("beam", i 3); ("iters", i 2) ]
        [
          ("best io", i inc.O.best.O.io);
          ("accepted", i inc.O.accepted);
          ("events total", i inc.O.oracle_total);
          ("events replayed", i inc.O.oracle_replayed);
          ( "reuse %",
            f
              (100.
              *. float_of_int (inc.O.oracle_total - inc.O.oracle_replayed)
              /. float_of_int (max 1 inc.O.oracle_total)) );
          ("ratio", f (float_of_int inc.O.best.O.io /. bound));
          ("identical", mark same);
          ("verdict", mark (same && full.O.oracle_replayed = full.O.oracle_total));
        ];
      (* The oracle in isolation, free of candidate-evaluation noise:
         one admitted schedule, one small legal mutation (two adjacent
         Loads swapped), K verdicts per mode. This is the unit of work
         the beam pays per entrant whose move stayed local. *)
      let w = work S.strassen n in
      let o = dfs_order S.strassen n in
      let trace = (Sch.run_lru w ~cache_size:mm o).Sch.trace in
      let _, base = Tc.check_cached ~cache_size:mm w trace in
      let mutated =
        let arr = Array.of_list (Tr.to_list trace) in
        let k = ref (-1) in
        (try
           for p = Array.length arr / 2 to Array.length arr - 2 do
             match (arr.(p), arr.(p + 1)) with
             | Tr.Load a, Tr.Load b when a <> b ->
               k := p;
               raise Exit
             | _ -> ()
           done
         with Exit -> ());
        if !k >= 0 then begin
          let tmp = arr.(!k) in
          arr.(!k) <- arr.(!k + 1);
          arr.(!k + 1) <- tmp
        end;
        Tr.of_list (Array.to_list arr)
      in
      let reps = 10 in
      let t3 = Unix.gettimeofday () in
      let v = ref (Tc.check_delta ~base w mutated) in
      for _ = 2 to reps do
        v := Tc.check_delta ~base w mutated
      done;
      let t4 = Unix.gettimeofday () in
      for _ = 1 to reps do
        ignore (CM.replay { CM.cache_size = mm; allow_recompute = true } w mutated);
        ignore (Tc.check ~cache_size:mm w mutated)
      done;
      let t5 = Unix.gettimeofday () in
      let delta_s = (t4 -. t3) /. float_of_int reps
      and full_s = (t5 -. t4) /. float_of_int reps in
      Obs.gauge m "oracle_delta_unit_s" delta_s;
      Obs.gauge m "oracle_full_unit_s" full_s;
      Obs.gauge m "oracle_speedup_s" (if delta_s > 0. then full_s /. delta_s else nan);
      Obs.rowf m ~section:"oracle unit cost (one swapped-Load mutation)"
        ~params:[ ("n", i n); ("M", i mm) ]
        [
          ("trace events", i (Tr.length trace));
          ("replayed", i !v.Tc.replayed);
          ("reused prefix", i !v.Tc.reused_prefix);
          ("reused suffix", i !v.Tc.reused_suffix);
          ("errors", i !v.Tc.v_errors);
        ];
      Obs.note m
        "(wall clocks live in the _s scalars: search_full_replay_s vs \
         search_incremental_s for the whole search, oracle_*_unit_s and \
         oracle_speedup_s for the oracle alone)")

(* ----- FT1..FT3: fault injection and recovery ----- *)

module Sim = Fmm_fault.Sim

(* Shared helper: run the seeded simulator, cross-validate the event
   log with the replay checker, and fail the experiment (not just a
   row) if the recovered execution violates read-before-send or loses
   an output — these are correctness invariants, not measurements. *)
let fault_run ~id w ~procs ~assignment ~policy ~fail ~seed ~bound =
  let r = Sim.simulate w ~procs ~assignment ~policy ~fail ~seed ~bound () in
  let replay = Sim.check w r in
  let errs = Fmm_analysis.Diagnostic.n_errors replay.Fmm_analysis.Par_check.report in
  if errs <> 0 || replay.Fmm_analysis.Par_check.lost_outputs <> 0 then
    failwith
      (Printf.sprintf
         "%s: recovered run invalid (policy %s, fail %d): %d replay errors, %d \
          lost outputs"
         id (Sim.policy_name policy) fail errs
         replay.Fmm_analysis.Par_check.lost_outputs);
  r

let _ft1 =
  define ~id:"FT1" ~title:"fault injection - fault-free parity with Par_exec"
    ~doc:
      "With zero failures every policy must reproduce the plain \
       executor's per-processor census exactly (Replicate 1 pushes no \
       replicas). This is the CI smoke: any divergence is a simulator \
       bug, so it fails the experiment rather than shading a ratio."
    (fun m ->
      let section = "fault-free parity (BFS Strassen)" in
      List.iter
        (fun (n, depth) ->
          let c = cdag S.strassen n in
          let w = work S.strassen n in
          let r0 = PE.strassen_bfs_experiment c ~depth in
          let assignment = PE.bfs_assignment c ~depth ~procs:r0.PE.procs in
          List.iter
            (fun policy ->
              let r =
                fault_run ~id:"FT1" w ~procs:r0.PE.procs ~assignment ~policy
                  ~fail:0 ~seed:1 ~bound:(B.fast_memind ~n ~p:r0.PE.procs ())
              in
              if
                r.Sim.total_words <> r0.PE.total_words
                || r.Sim.sent <> r0.PE.sent
                || r.Sim.received <> r0.PE.received
              then
                failwith
                  (Printf.sprintf
                     "FT1: zero-failure %s diverged from Par_exec.run at n=%d \
                      depth=%d (%d vs %d words)"
                     (Sim.policy_name policy) n depth r.Sim.total_words
                     r0.PE.total_words);
              Obs.incr m "parity_checks";
              Obs.rowf m ~section
                ~params:
                  [
                    ("n", i n);
                    ("P", i r0.PE.procs);
                    ("policy", s (Sim.policy_name policy));
                  ]
                [
                  ("total words", i r.Sim.total_words);
                  ("parity", mark (r.Sim.total_words = r0.PE.total_words));
                ])
            [ Sim.Recompute_local; Sim.Refetch_owner; Sim.Replicate 1 ])
        [ (16, 1); (16, 2) ])

let _ft2 =
  define ~id:"FT2" ~title:"fault injection - single-failure overhead per policy"
    ~doc:
      "One seeded crash mid-sweep; each recovery policy replays to \
       completion. Overhead is total words vs the fault-free run of \
       the same partition; the ratio rows are baseline-gated. \
       Replicate pays its replication up front, so its overhead \
       dominates on these small instances."
    (fun m ->
      let n = 16 and depth = 1 in
      let c = cdag S.strassen n in
      let w = work S.strassen n in
      let procs = 7 in
      let assignment = PE.bfs_assignment c ~depth ~procs in
      let bound = B.fast_memind ~n ~p:procs () in
      let section =
        Printf.sprintf "one crash, BFS Strassen n = %d on P = %d (seed 7)" n
          procs
      in
      List.iter
        (fun policy ->
          let r =
            fault_run ~id:"FT2" w ~procs ~assignment ~policy ~fail:1 ~seed:7
              ~bound
          in
          Obs.rowf m ~section
            ~params:[ ("policy", s (Sim.policy_name policy)) ]
            [
              ("total words", i r.Sim.total_words);
              ("max words/proc", i r.Sim.max_words);
              ("recovery words", i r.Sim.recovery_words);
              ("replication words", i r.Sim.replication_words);
              ("recomputed", i r.Sim.recomputed);
              ("ratio", f r.Sim.overhead_total);
            ])
        [ Sim.Recompute_local; Sim.Refetch_owner; Sim.Replicate 2 ])

let _ft3 =
  define ~id:"FT3" ~title:"fault injection - overhead vs failure count"
    ~doc:
      "Recompute-local recovery under an increasing seeded failure \
       load on one fixed BFS partition. Overhead grows roughly \
       linearly in the failure count here: each crash loses one \
       processor's subtree and its resident foreign words, and the \
       re-derivation re-fetches a bounded operand set."
    (fun m ->
      let n = 16 and depth = 2 in
      let c = cdag S.strassen n in
      let w = work S.strassen n in
      let procs = 49 in
      let assignment = PE.bfs_assignment c ~depth ~procs in
      let bound = B.fast_memind ~n ~p:procs () in
      let section =
        Printf.sprintf
          "recompute-local, BFS Strassen n = %d on P = %d (seed 11)" n procs
      in
      List.iter
        (fun fail ->
          let r =
            fault_run ~id:"FT3" w ~procs ~assignment
              ~policy:Sim.Recompute_local ~fail ~seed:11 ~bound
          in
          Obs.rowf m ~section
            ~params:[ ("failures", i fail) ]
            [
              ("total words", i r.Sim.total_words);
              ("max words/proc", i r.Sim.max_words);
              ("recovery words", i r.Sim.recovery_words);
              ("recomputed", i r.Sim.recomputed);
              ("ratio", f r.Sim.overhead_total);
              ( "bound ratio",
                f (Option.value ~default:nan r.Sim.bound_ratio) );
            ])
        [ 0; 1; 2; 4; 8 ];
      Obs.note m
        "(fail = 0 is the parity row: ratio exactly 1.0 by construction)")

(* ----- CS1/CS2: COSMA-style schedule generation ----- *)

module G = Fmm_sched.Generator

(* Replaying cleanly through the crash-aware log checker is a
   correctness invariant of every generated assignment, not a
   measurement: a dirty replay fails the experiment. *)
let cs_validate ~id ~what w ~procs ~assignment =
  let replay = G.validate w ~procs ~assignment in
  let errs =
    Fmm_analysis.Diagnostic.n_errors replay.Fmm_analysis.Par_check.report
  in
  if errs <> 0 || replay.Fmm_analysis.Par_check.lost_outputs <> 0 then
    failwith
      (Printf.sprintf
         "%s: %s replays dirty on P = %d: %d replay errors, %d lost outputs" id
         what procs errs replay.Fmm_analysis.Par_check.lost_outputs)

(* Smallest BFS depth whose t^depth subtrees cover P processors — the
   baseline partition every generated split is gated against. *)
let bfs_depth ~rank ~procs =
  let rec go d pw = if pw >= procs then d else go (d + 1) (pw * rank) in
  go 0 1

let _cs1 =
  define ~id:"CS1" ~title:"COSMA generator smoke - split vs BFS, Strassen n = 16"
    ~doc:
      "The per-commit smoke for lib/sched: split the recursive-DFS \
       order of Strassen n = 16 across P = 7, replay-validate the \
       assignment, and gate its measured census against the depth-1 \
       BFS partition (the generated split must not communicate more). \
       Also runs the (p1, p2, p3) grid search on the pure classical \
       n = 8 CDAG. Gate violations fail the experiment; the ratio rows \
       (total words vs P times the Theorem 4.1 bound) are \
       baseline-gated."
    (fun m ->
      let n = 16 and procs = 7 in
      let c = cdag S.strassen n in
      let w = work S.strassen n in
      let split =
        G.split_order w ~procs (Array.of_list (dfs_order S.strassen n))
      in
      cs_validate ~id:"CS1" ~what:"generated split" w ~procs
        ~assignment:split.G.assignment;
      if split.G.crossing <> (PE.run w ~procs ~assignment:split.G.assignment).PE.total_words
      then failwith "CS1: split census disagrees with Par_exec.run";
      let bfs = PE.bfs_assignment c ~depth:(bfs_depth ~rank:7 ~procs) ~procs in
      let rb = PE.run w ~procs ~assignment:bfs in
      let rg = PE.run w ~procs ~assignment:split.G.assignment in
      if rg.PE.total_words > rb.PE.total_words then
        failwith
          (Printf.sprintf "CS1: generated split loses to BFS (%d > %d words)"
             rg.PE.total_words rb.PE.total_words);
      let bound = G.memind_bound c ~procs in
      let tot_bound = float_of_int procs *. bound in
      let section = "split vs BFS (Strassen n = 16, P = 7, M = inf)" in
      List.iter
        (fun (name, r) ->
          Obs.rowf m ~section
            ~params:[ ("schedule", s name) ]
            [
              ("total words", i r.PE.total_words);
              ("max words/proc", i r.PE.max_words);
              ("ratio", f (float_of_int r.PE.total_words /. tot_bound));
              ("gate", mark (r.PE.total_words <= rb.PE.total_words));
            ])
        [ ("bfs depth 1", rb); ("generated split", rg) ];
      (* the exact-integer grid search on the classical iteration cube *)
      let nc = 8 in
      let cl = Cd.build S.strassen ~n:nc ~cutoff:nc in
      let wl = Fmm_machine.Workload.of_cdag cl in
      let (g1, g2, g3), cost, rm, asg = G.grid_search cl ~procs:8 in
      cs_validate ~id:"CS1" ~what:"grid assignment" wl ~procs:8 ~assignment:asg;
      Obs.rowf m ~section:"grid search (classical n = 8, P = 8)"
        ~params:[ ("grid", s (Printf.sprintf "%dx%dx%d" g1 g2 g3)) ]
        [
          ("model words/proc", f cost.Par.words_per_proc);
          ("rounds", i cost.Par.rounds);
          ("measured total", i rm.PE.total_words);
          ("max words/proc", i rm.PE.max_words);
        ])

let _cs2 =
  define ~id:"CS2"
    ~title:"COSMA acceptance - generated splits vs BFS across (P, M)"
    ~doc:
      "The issue's acceptance sweep. Strassen n in {16, 32} on P in \
       {7, 49}, executed unlimited and under M in {64, 256, 1024} \
       local words: the generated split must communicate no more total \
       words than the BFS partition at the same (P, M) — a violation \
       fails the experiment, and every assignment must replay cleanly. \
       Then the Theorem 4.1 gate across every square registry \
       algorithm (measured traffic vs the memory-independent bound, \
       ratio >= 1), and the fault-injection overhead of a generated \
       schedule under the refetch-owner policy."
    (fun m ->
      List.iter
        (fun n ->
          let c = cdag S.strassen n in
          let w = work S.strassen n in
          let order = Array.of_list (dfs_order S.strassen n) in
          List.iter
            (fun procs ->
              let split = G.split_order w ~procs order in
              cs_validate ~id:"CS2" ~what:"generated split" w ~procs
                ~assignment:split.G.assignment;
              let bfs =
                PE.bfs_assignment c ~depth:(bfs_depth ~rank:7 ~procs) ~procs
              in
              let tot_bound =
                float_of_int procs *. G.memind_bound c ~procs
              in
              let section = Printf.sprintf "Strassen n = %d, P = %d" n procs in
              List.iter
                (fun mem ->
                  let run asg =
                    if mem = max_int then PE.run w ~procs ~assignment:asg
                    else
                      PE.run_limited w ~procs ~assignment:asg ~local_memory:mem
                  in
                  let rb = run bfs in
                  let rg = run split.G.assignment in
                  if rg.PE.total_words > rb.PE.total_words then
                    failwith
                      (Printf.sprintf
                         "CS2: generated split loses to BFS at n = %d, P = %d, \
                          M = %s (%d > %d words)"
                         n procs
                         (if mem = max_int then "inf" else string_of_int mem)
                         rg.PE.total_words rb.PE.total_words);
                  Obs.incr m "gate_checks";
                  Obs.rowf m ~section
                    ~params:[ ("M", if mem = max_int then s "inf" else i mem) ]
                    [
                      ("bfs total", i rb.PE.total_words);
                      ("gen total", i rg.PE.total_words);
                      ("bfs vs bound", f (float_of_int rb.PE.total_words /. tot_bound));
                      ("ratio", f (float_of_int rg.PE.total_words /. tot_bound));
                      ("gate", mark (rg.PE.total_words <= rb.PE.total_words));
                    ])
                [ max_int; 64; 256; 1024 ])
            [ 7; 49 ])
        [ 16; 32 ];
      (* Theorem 4.1 gate: on every square registry algorithm the
         generated split's measured traffic must sit above the
         memory-independent bound — the bound is a floor, so a ratio
         below 1 would mean the census (or the bound) is wrong. *)
      let section = "Theorem 4.1 gate (square registry algorithms)" in
      List.iter
        (fun alg ->
          let n0, m0, k0 = A.dims alg in
          if n0 = m0 && m0 = k0 then begin
            let n = n0 * n0 in
            if Cd.n_vertices (cdag alg n) <= 60_000 then begin
              let c = cdag alg n in
              let w = work alg n in
              let procs = A.rank alg in
              let split =
                G.split_order w ~procs (Array.of_list (dfs_order alg n))
              in
              cs_validate ~id:"CS2" ~what:(A.name alg ^ " split") w ~procs
                ~assignment:split.G.assignment;
              let r = PE.run w ~procs ~assignment:split.G.assignment in
              let bound = G.memind_bound c ~procs in
              Obs.rowf m ~section
                ~params:
                  [ ("algorithm", s (A.name alg)); ("n", i n); ("P", i procs) ]
                [
                  ("max words/proc", i r.PE.max_words);
                  ("Thm 4.1 bound", f bound);
                  ("ratio", f (float_of_int r.PE.max_words /. bound));
                  ("gate", mark (float_of_int r.PE.max_words >= bound -. 1e-9));
                ]
            end
          end)
        S.registry;
      (* fault overhead of a generated schedule: the issue asks for the
         recovery ratios of at least one generated assignment *)
      let c16 = cdag S.strassen 16 in
      let w16 = work S.strassen 16 in
      let split16 =
        G.split_order w16 ~procs:7 (Array.of_list (dfs_order S.strassen 16))
      in
      let bound16 = G.memind_bound c16 ~procs:7 in
      List.iter
        (fun fail ->
          let r =
            fault_run ~id:"CS2" w16 ~procs:7 ~assignment:split16.G.assignment
              ~policy:Sim.Refetch_owner ~fail ~seed:7 ~bound:bound16
          in
          Obs.rowf m ~section:"fault overhead (generated split, refetch-owner)"
            ~params:[ ("failures", i fail) ]
            [
              ("total words", i r.Sim.total_words);
              ("recovery words", i r.Sim.recovery_words);
              ("ratio", f r.Sim.overhead_total);
            ])
        [ 0; 1; 2 ])

(* ----- PERF: bechamel timings ----- *)

(* ----- IC1/IC2: implicit recursion-indexed CDAG at scale ----- *)

let _ic1 =
  define ~id:"IC1"
    ~title:"implicit CDAG: censuses + streaming segment I/O at n = 256"
    (fun m ->
      let module Im = Fmm_cdag.Implicit in
      let section = "implicit CDAG (no materialized graph)" in
      (* parity with the explicit builder where both exist *)
      let cd16 = cdag S.strassen 16 in
      Obs.rowf m ~section
        ~params:[ ("alg", s "Strassen"); ("n", i 16) ]
        [
          ("stats parity", mark (Cd.stats cd16 = Im.stats (Im.of_cdag cd16)));
          ( "V_out parity",
            mark
              (List.sort compare (Cd.sub_outputs cd16 ~r:4)
              = List.sort compare (Im.sub_outputs (Im.of_cdag cd16) ~r:4)) );
        ];
      (* closed-form censuses at scales the explicit builder cannot reach *)
      List.iter
        (fun (alg, n) ->
          let imp = Im.create alg ~n in
          Obs.rowf m ~section
            ~params:[ ("alg", s (A.name alg)); ("n", i n) ]
            [
              ("vertices", i (Im.n_vertices imp));
              ("edges", i (Im.n_edges imp));
              ("mult", i (List.assoc "mult" (Im.stats imp)));
              ("|V_out| r=n/2", i (Im.sub_output_count imp ~r:(n / 2)));
            ])
        [ (S.strassen, 256); (S.winograd, 256); (S.strassen, 1024) ];
      (* Theorem 1.1 instantiation at n = 256, M = 4096: s = 64,
         r = 2 sqrt(M) = 128, quota = 4M — the regime the explicit path
         could never execute (40M vertices, 80M edges) *)
      let mm = 4096 and r = 128 in
      List.iter
        (fun alg ->
          let imp = Im.create alg ~n:256 in
          let seg, counters = Seg.analyze_implicit imp ~cache_size:mm ~r () in
          let memdep = B.fast_sequential ~n:256 ~m:mm () in
          Obs.rowf m ~section
            ~params:
              [ ("alg", s (A.name alg)); ("n", i 256); ("M", i mm); ("r", i r) ]
            ([
               ("I/O", i (Tr.io counters));
               ("ratio", f (float_of_int (Tr.io counters) /. memdep));
               ("full segs", i (List.length (Seg.full_segments seg)));
             ]
            @ (match Seg.min_io_full_segments seg with
              | Some x -> [ ("min seg I/O", i x) ]
              | None -> [])
            @ [
                ("bound", i seg.Seg.bound);
                ("holds", mark (Seg.lemma_3_6_holds seg));
              ]))
        [ S.strassen; S.winograd ];
      Obs.note m
        "(streaming LRU on the canonical ascending-id order; segment bound = \
         r^2/2 - M)")

let _ic2 =
  define ~id:"IC2"
    ~title:"implicit CDAG: streaming MAXLIVE + exact bound arithmetic"
    (fun m ->
      let module Im = Fmm_cdag.Implicit in
      let module Df = Fmm_analysis.Dataflow in
      let section = "streaming liveness of the canonical order" in
      (* event-for-event parity with the explicit scheduler *)
      let cd8 = cdag S.strassen 8 in
      let imp8 = Im.of_cdag cd8 in
      let order8 =
        List.init
          (Im.n_vertices imp8 - Im.n_inputs imp8)
          (fun k -> Im.n_inputs imp8 + k)
      in
      let er = Sch.run_lru (work S.strassen 8) ~cache_size:32 order8 in
      let ir = Fmm_machine.Stream_exec.run_lru_collect imp8 ~cache_size:32 in
      Obs.rowf m ~section
        ~params:[ ("alg", s "Strassen"); ("n", i 8); ("M", i 32) ]
        [
          ("trace parity", mark (er.Sch.trace = ir.Sch.trace));
          ("counter parity", mark (er.Sch.counters = ir.Sch.counters));
        ];
      (* MAXLIVE and the policy-independent I/O lower bound at n = 256 *)
      List.iter
        (fun alg ->
          let imp = Im.create alg ~n:256 in
          let sl = Df.implicit_order_liveness imp in
          Obs.rowf m ~section
            ~params:[ ("alg", s (A.name alg)); ("n", i 256) ]
            [
              ("maxlive", i sl.Df.Streamed.maxlive);
              ("inputs used", i sl.Df.Streamed.inputs_used);
              ( "I/O bound M=4096",
                i (Df.streamed_io_lower_bound sl ~cache_size:4096) );
            ])
        [ S.strassen; S.winograd ];
      (* exact big-integer crossover vs the old float pipeline's turf *)
      Obs.rowf m ~section:"exact classical crossover (P^2 M^3 >= n^6)"
        ~params:[ ("n", s "2^20"); ("M", s "2^20") ]
        [
          ("P*", i (B.classical_crossover_p ~n:(1 lsl 20) ~m:(1 lsl 20)));
          ( "= 2^30",
            mark (B.classical_crossover_p ~n:(1 lsl 20) ~m:(1 lsl 20) = 1 lsl 30)
          );
        ];
      Obs.note m
        "(MAXLIVE via interval sweep with a count of open intervals per stop \
         key; no per-vertex arrays)")

(* ----- NE1 / NE2: the numeric execution backend ----- *)

let _ne1 =
  define ~id:"NE1" ~title:"numeric executor - schedules run on real matrices"
    ~doc:
      "Execute LRU / Belady / rematerializing / hybrid schedules on concrete \
       data (float64 with a physical M-word arena, Z_65537 as bit-exact \
       oracle) and check the result against classical MM and the executed \
       counters against the word-counting simulators, event for event."
    (fun m ->
      let module Ex = Fmm_exec.Executor in
      let section = "executed schedules vs predictions" in
      let emit v =
        (* hard gate: a wrong numeric result or a counter divergence is a
           broken executor, not a ratio drift — fail the experiment *)
        if not (Ex.verification_ok v) then
          failwith
            (Printf.sprintf
               "NE1: %s n=%d M=%d %s: executed result or counters diverge"
               v.Ex.algorithm v.Ex.n v.Ex.cache_size v.Ex.policy_name);
        List.iter
          (fun r ->
            Obs.rowf m ~section
              ~params:
                [
                  ("algorithm", s v.Ex.algorithm);
                  ("n", i v.Ex.n);
                  ("M", i v.Ex.cache_size);
                  ("policy", s v.Ex.policy_name);
                  ("backend", s r.Ex.backend);
                ]
              [
                ("loads", i r.Ex.executed.Tr.loads);
                ("stores", i r.Ex.executed.Tr.stores);
                ("io", i (Tr.io r.Ex.executed));
                ("recomputes", i r.Ex.executed.Tr.recomputes);
                ("peak", i r.Ex.peak_occupancy);
                ("result", mark r.Ex.result_ok);
                ("counters", mark r.Ex.counters_ok);
              ])
          v.Ex.reports
      in
      List.iter
        (fun (alg, n, mem) ->
          List.iter
            (fun policy ->
              let c = cdag alg n in
              let sched = Ex.schedule c ~cache_size:mem policy in
              emit
                (Ex.verify_sched ~seed:7 ~backends:[ `F64; `Zp ] c
                   ~cache_size:mem
                   ~policy_name:(Ex.policy_to_string policy)
                   sched))
            Ex.all_policies)
        [ (S.strassen, 16, 64); (S.winograd, 16, 64); (S.strassen, 8, 32) ];
      (* a hybrid (per-value spill-vs-recompute) schedule: the executor
         accepts any replay-verified trace, not just the fixed policies *)
      let c = cdag S.strassen 16 in
      let sched =
        Sch.run_hybrid (work S.strassen 16) ~cache_size:64
          ~recompute:(fun v -> v mod 5 = 0)
          (dfs_order S.strassen 16)
      in
      emit
        (Ex.verify_sched ~seed:7 ~backends:[ `F64; `Zp ] c ~cache_size:64
           ~policy_name:"hybrid" sched);
      Obs.note m
        "(result: executed output = classical MM — exact over Z_65537, within \
         1e-9 over float64; counters: executed = scheduler's prediction)")

let _ne2 =
  define ~id:"NE2" ~title:"Strassen vs classical crossover (float64 kernels)"
    ~doc:
      "Sweep the blocked classical kernel against recursive Strassen \
       (cutoff 64) on float64: deterministic flop counts and agreement marks \
       in the rows, wall clocks only in _s scalars."
    (fun m ->
      let module K = Fmm_exec.Kernel in
      let rng = Fmm_util.Prng.create ~seed:11 in
      let cutoff = 64 in
      let section = "float64 kernel sweep (cutoff 64)" in
      List.iter
        (fun n ->
          let a = K.random rng n and b = K.random rng n in
          let t0 = Unix.gettimeofday () in
          let c_ref = K.blocked_mul a b in
          let t1 = Unix.gettimeofday () in
          let c_fast, fl = K.fast_mul ~cutoff S.strassen a b in
          let t2 = Unix.gettimeofday () in
          let err = K.rel_err c_fast ~reference:c_ref in
          let cl = K.classical_flops n in
          let total x = x.K.adds + x.K.mults in
          Obs.rowf m ~section ~params:[ ("n", i n) ]
            [
              ("classical flops", i (total cl));
              ("strassen flops", i (total fl));
              ( "flop ratio",
                f (float_of_int (total fl) /. float_of_int (total cl)) );
              ("max rel err", f err);
              ("agree", mark (err <= 1e-9));
            ];
          (* wall clocks are volatile: _s scalars only, stripped by the
             baseline/determinism comparisons *)
          Obs.gauge m (Printf.sprintf "ne2_classical_n%d_s" n) (t1 -. t0);
          Obs.gauge m (Printf.sprintf "ne2_strassen_n%d_s" n) (t2 -. t1))
        [ 64; 128; 256; 512 ];
      Obs.note m
        "(flop ratio < 1 from n = 128: Strassen saves arithmetic as soon as \
         one recursion level is in play; the wall-clock crossover lives in \
         the ne2_*_s scalars and moves with the machine)")

(* ----- HY1 / HY2: the hybrid Strassen/classical scenario family ----- *)

let _hy1 =
  define ~id:"HY1" ~title:"hybrid CDAGs - lint / certify / execute per cutoff"
    ~doc:
      "Build the cutoff-parameterized Strassen/classical CDAG at every \
       cutoff of H^{16x16} and push each through the whole verification \
       stack: structural lint, the static/dynamic certifier, the static \
       trace checker (zero replay violations), and the numeric executor \
       (float64 arena + Z_65537 oracle). Any failure anywhere is a broken \
       hybrid builder, so every check is a hard gate, not a drifting \
       ratio."
    (fun m ->
      let module Ex = Fmm_exec.Executor in
      let module Ct = Fmm_analysis.Certify in
      let module Tc = Fmm_analysis.Trace_check in
      let module Lint = Fmm_analysis.Cdag_lint in
      let module Diag = Fmm_analysis.Diagnostic in
      let n = 16 and mm = 64 in
      let section = "hybrid Strassen H^{16x16}, M = 64" in
      List.iter
        (fun cutoff ->
          let c = Cd.build ~cutoff S.strassen ~n in
          let w = Fmm_machine.Workload.of_cdag c in
          let order = Ord.recursive_dfs c in
          let lint_rep = Lint.lint c in
          if not (Diag.is_clean lint_rep) then
            failwith
              (Printf.sprintf "HY1: cutoff %d lints dirty (%d errors)" cutoff
                 (Diag.n_errors lint_rep));
          let cert =
            Obs.time m (Printf.sprintf "certify cutoff=%d" cutoff) (fun () ->
                Ct.run ~jobs:(jobs ()) ~cdag:c ~cache_size:mm w ~order)
          in
          if not (Ct.certified cert) then
            failwith (Printf.sprintf "HY1: cutoff %d fails certification" cutoff);
          let sched = Ex.schedule c ~cache_size:mm Ex.Lru in
          let tc = Tc.check ~cache_size:mm w sched.Sch.trace in
          if not (Diag.is_clean tc.Tc.report) then
            failwith
              (Printf.sprintf "HY1: cutoff %d trace has %d replay violations"
                 cutoff
                 (Diag.n_errors tc.Tc.report));
          let v =
            Ex.verify_sched ~seed:7 ~backends:[ `F64; `Zp ] c ~cache_size:mm
              ~policy_name:"lru" sched
          in
          if not (Ex.verification_ok v) then
            failwith
              (Printf.sprintf
                 "HY1: cutoff %d executed result or counters diverge" cutoff);
          let io = Tr.io sched.Sch.counters in
          let bound = B.hybrid_memdep ~n ~m:mm ~p:1 ~cutoff () in
          Obs.rowf m ~section
            ~params:[ ("cutoff", i cutoff) ]
            [
              ("vertices", i (Cd.n_vertices c));
              ("edges", i (Cd.n_edges c));
              ("io", i io);
              ("hybrid bound", f bound);
              ("ratio", f (float_of_int io /. bound));
              ("lint", mark (Diag.is_clean lint_rep));
              ("certified", mark (Ct.certified cert));
              ("violations", i (Diag.n_errors tc.Tc.report));
              ("executed", mark (Ex.verification_ok v));
            ])
        [ 1; 2; 4; 8; 16 ];
      Obs.note m
        "(cutoff 1 is node-for-node the uniform fast CDAG, cutoff 16 the \
         pure classical one; every intermediate cutoff passes the same \
         battery — the hard gates fail the experiment on any divergence)")

let _hy2 =
  define ~id:"HY2" ~title:"hybrid sweep - measured I/O vs De Stefani bounds"
    ~doc:
      "Sweep every cutoff of hybrid Strassen H^{32x32} across fast-memory \
       sizes: LRU I/O on the recursive order vs the hybrid \
       memory-dependent lower bound (the gated ratios), the I/O-optimal \
       cutoff per M, and the M-independent flop-optimal cutoff from the \
       executor's counters — the NE2 crossover axis."
    (fun m ->
      let module K = Fmm_exec.Kernel in
      let n = 32 in
      let cutoffs = [ 1; 2; 4; 8; 16; 32 ] in
      let mems = [ 64; 256 ] in
      let section = "hybrid Strassen H^{32x32} sweep" in
      (* flops are M-independent: one kernel run per cutoff *)
      let flops =
        List.map
          (fun cutoff ->
            let rng = Fmm_util.Prng.create ~seed:1 in
            let a = K.random rng n and b = K.random rng n in
            let _, fl = K.fast_mul ~cutoff S.strassen a b in
            (cutoff, fl.K.adds + fl.K.mults))
          cutoffs
      in
      let points =
        List.concat_map
          (fun mm ->
            List.map
              (fun cutoff ->
                let c = Cd.build ~cutoff S.strassen ~n in
                let w = Fmm_machine.Workload.of_cdag c in
                let order = Ord.recursive_dfs c in
                let io =
                  Obs.time m
                    (Printf.sprintf "lru M=%d cutoff=%d" mm cutoff)
                    (fun () ->
                      Tr.io (Sch.run_lru w ~cache_size:mm order).Sch.counters)
                in
                let bound = B.hybrid_memdep ~n ~m:mm ~p:1 ~cutoff () in
                Obs.rowf m ~section
                  ~params:[ ("M", i mm); ("cutoff", i cutoff) ]
                  [
                    ("io", i io);
                    ("hybrid bound", f bound);
                    ("ratio", f (float_of_int io /. bound));
                    ("flops", i (List.assoc cutoff flops));
                    ("within bound", mark (float_of_int io >= bound));
                  ];
                (mm, cutoff, io))
              cutoffs)
          mems
      in
      let section = "optimal cutoffs" in
      let flop_best =
        fst
          (List.fold_left
             (fun (bc, bf) (c, fl) -> if fl < bf then (c, fl) else (bc, bf))
             (List.hd flops) (List.tl flops))
      in
      List.iter
        (fun mm ->
          let mine =
            List.filter_map
              (fun (m', c, io) -> if m' = mm then Some (c, io) else None)
              points
          in
          let io_best, min_io =
            List.fold_left
              (fun (bc, bio) (c, io) -> if io < bio then (c, io) else (bc, bio))
              (List.hd mine) (List.tl mine)
          in
          Obs.rowf m ~section
            ~params:[ ("M", i mm) ]
            [
              ("io-optimal cutoff", i io_best);
              ("min io", i min_io);
              ("flop-optimal cutoff", i flop_best);
              ("crossover P*", i (B.hybrid_crossover_p ~n ~m:mm ~cutoff:io_best ()));
            ])
        mems;
      Obs.note m
        "(the flop-optimal cutoff is M-independent — NE2's crossover axis; \
         the I/O-optimal cutoff moves with M exactly as the hybrid bound \
         predicts: larger caches favor deeper fast recursion)")

let _perf =
  define ~id:"PERF" ~title:"kernel timings (bechamel, monotonic clock)"
    (fun m ->
      (* capture everything before opening Bechamel: it exports modules
         that shadow our S/T aliases *)
      let rng = Fmm_util.Prng.create ~seed:1 in
      let a64 = MI.random ~rng ~rows:64 ~cols:64 ~range:5 in
      let b64 = MI.random ~rng ~rows:64 ~cols:64 ~range:5 in
      let strassen = S.strassen and winograd = S.winograd in
      let enc = Enc.encoder_bipartite strassen Enc.A_side in
      let w8 = work strassen 8 in
      let o8 = dfs_order strassen 8 in
      let c4 = cdag strassen 4 in
      let open Bechamel in
      let open Toolkit in
      let mk name f = Test.make ~name (Staged.stage f) in
      let tests =
        [
          mk "strassen multiply 64x64 (int)" (fun () ->
              ignore (A.Apply_int.multiply strassen a64 b64));
          mk "winograd multiply 64x64 (int)" (fun () ->
              ignore (A.Apply_int.multiply winograd a64 b64));
          mk "classical multiply 64x64 (int)" (fun () -> ignore (MI.mul a64 b64));
          mk "ks-abmm multiply 64x64 (int)" (fun () ->
              ignore (AB.Transform_int.multiply AB.ks_winograd a64 b64));
          mk "cdag build n=8" (fun () -> ignore (Cd.build strassen ~n:8));
          mk "lemma 3.1 battery (127 subsets)" (fun () ->
              ignore (EL.check_lemma_3_1 enc));
          mk "min dominator H^{4x4} (max-flow)" (fun () ->
              ignore
                (Fmm_graph.Vertex_cut.min_dominator (Cd.graph c4)
                   ~sources:(Array.to_list (Cd.inputs c4))
                   ~targets:(Array.to_list (Cd.outputs c4))));
          mk "lru simulation n=8 M=32" (fun () ->
              ignore (Sch.run_lru w8 ~cache_size:32 o8));
          mk "implicit create n=256" (fun () ->
              ignore (Fmm_cdag.Implicit.create strassen ~n:256));
          mk "implicit stream lru n=16 M=64" (fun () ->
              let imp = Fmm_cdag.Implicit.create strassen ~n:16 in
              ignore (Fmm_machine.Stream_exec.run_lru imp ~cache_size:64 ()));
          mk "par_exec_limited n=16 M=64" (fun () ->
              let c = cdag strassen 16 in
              let w = Fmm_machine.Workload.of_cdag c in
              let assignment = PE.bfs_assignment c ~depth:1 ~procs:7 in
              ignore (PE.run_limited w ~procs:7 ~assignment ~local_memory:64));
          mk "pebble savage-dag (exact, both)" (fun () ->
              ignore (Pb.compare_recomputation (Pd.recomputation_wins ())));
        ]
      in
      let cfg = Benchmark.cfg ~limit:200 ~quota:(Time.second 0.25) ~kde:None () in
      let instances = Instance.[ monotonic_clock ] in
      let ols =
        Analyze.ols ~bootstrap:0 ~r_square:false ~predictors:Measure.[| run |]
      in
      List.iter
        (fun test ->
          List.iter
            (fun elt ->
              let raw = Benchmark.run cfg instances elt in
              let est = Analyze.one ols Instance.monotonic_clock raw in
              let ns =
                match Analyze.OLS.estimates est with
                | Some [ x ] -> x
                | _ -> nan
              in
              Obs.rowf m ~section:"kernel timings"
                ~params:[ ("kernel", Obs.Str (Test.Elt.name elt)) ]
                [ ("ns/run", Obs.Float ns) ])
            (Test.elements test))
        tests)

(* The canonical experiment list, in registration order. *)
let all () = Exp.Registry.all registry
let ids () = Exp.Registry.ids registry
let select filter = Exp.Registry.select registry filter

(* Run a selection on the pool: outcomes in input order, inner
   fan-outs (DEEP, L37) at the same level. Deterministic at any
   [jobs] modulo wall clocks. *)
let run_selected ?(jobs = 1) es =
  set_jobs jobs;
  Exp.run_all ~jobs es
