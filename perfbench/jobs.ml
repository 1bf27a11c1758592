module A = Fmm_bilinear.Algorithm
module Prng = Fmm_util.Prng
module Cd = Fmm_cdag.Cdag
module Im = Fmm_cdag.Implicit
module W = Fmm_machine.Workload
module Ord = Fmm_machine.Orders
module Sch = Fmm_machine.Schedulers
module Tr = Fmm_machine.Trace
module Seg = Fmm_machine.Segments
module Sx = Fmm_machine.Stream_exec
module Px = Fmm_machine.Par_exec
module Tc = Fmm_analysis.Trace_check
module Df = Fmm_analysis.Dataflow
module Ct = Fmm_analysis.Certify
module Lint = Fmm_analysis.Cdag_lint
module Diag = Fmm_analysis.Diagnostic
module Ex = Fmm_exec.Executor
module K = Fmm_exec.Kernel
module G = Fmm_sched.Generator
module O = Fmm_opt.Optimizer

let call = Span.call

type size = Full | Smoke

type tally = {
  counts : (string, float) Hashtbl.t;
  mutable attempted : int;
  mutable failures : string list;
}

let new_tally () = { counts = Hashtbl.create 32; attempted = 0; failures = [] }
let count t name = Hashtbl.find_opt t.counts name
let checks_attempted t = t.attempted
let checks_failed t = List.length t.failures
let failures t = List.rev t.failures

let add t name v =
  let v = float_of_int v in
  Hashtbl.replace t.counts name (v +. Option.value ~default:0. (count t name))

let check t what ok =
  t.attempted <- t.attempted + 1;
  if not ok then t.failures <- what :: t.failures

type workload = { name : string; prepare : seed:int -> size -> tally -> unit }

let lookup name =
  match Fmm_bilinear.Strassen.find name with
  | Some a -> a
  | None -> invalid_arg ("unknown algorithm " ^ name)

let errors report = call "analysis.diagnostic.n_errors" (fun () -> Diag.n_errors report)
let procs = 49

(* Exact answers measured at the benchmark's introduction: loads +
   stores of each schedule (recursive-DFS order for the explicit
   schedulers, ascending-id order for the stream) and the generator's
   crossing words. All are structural, so no seed moves them. *)
let expected =
  [
    (* full sizes *)
    (("Strassen", 64, 1024, "lru"), 142_728);
    (("Strassen", 64, 1024, "belady"), 115_222);
    (("Strassen", 64, 1024, "split-order"), 68_864);
    (("Strassen", 32, 256, "lru"), 35_700);
    (("Strassen", 32, 256, "belady"), 28_802);
    (("Strassen", 32, 256, "split-order"), 18_505);
    (("Winograd", 32, 256, "lru"), 39_925);
    (("Winograd", 32, 256, "belady"), 30_230);
    (("Winograd", 32, 256, "split-order"), 21_448);
    (("Strassen", 16, 64, "remat"), 263_805);
    (("Winograd", 16, 64, "remat"), 1_430_023);
    (("Strassen", 128, 1024, "stream-lru"), 1_245_630);
    (("Strassen", 128, 1024, "split-implicit"), 394_733);
    (* smoke sizes *)
    (("Strassen", 16, 64, "lru"), 8_876);
    (("Strassen", 16, 64, "belady"), 7_192);
    (("Strassen", 16, 64, "split-order"), 4_938);
    (("Winograd", 8, 32, "lru"), 1_584);
    (("Winograd", 8, 32, "belady"), 1_204);
    (("Winograd", 8, 32, "split-order"), 1_272);
    (("Strassen", 8, 32, "remat"), 14_309);
    (("Winograd", 8, 32, "remat"), 50_957);
    (("Strassen", 16, 64, "stream-lru"), 9_032);
    (("Strassen", 16, 64, "split-implicit"), 6_364);
  ]

let check_exact t (alg, n, m, what) got =
  let name = A.name alg in
  let want = List.assoc_opt (name, n, m, what) expected in
  check t
    (Printf.sprintf "%s n=%d M=%d %s: got %d, expected %s" name n m what got
       (match want with Some w -> string_of_int w | None -> "(none pinned)"))
    (want = Some got)

let build t alg ~n =
  let c = call "cdag.cdag.build" (fun () -> Cd.build alg ~n) in
  add t "cdag.cdag.build.vertices" (call "cdag.cdag.n_vertices" (fun () -> Cd.n_vertices c));
  let w = call "machine.workload.of_cdag" (fun () -> W.of_cdag c) in
  let order = call "machine.orders.recursive_dfs" (fun () -> Ord.recursive_dfs c) in
  (c, w, order)

let trace_length (r : Sch.result) = call "machine.trace.length" (fun () -> Tr.length r.trace)
let trace_io (c : Tr.counters) = call "machine.trace.io" (fun () -> Tr.io c)

let trace_check t ~cache_size w (r : Sch.result) ~len what =
  let tc = call "analysis.trace_check.check" (fun () -> Tc.check ~cache_size w r.trace) in
  add t "analysis.trace_check.check.events" len;
  check t (what ^ ": trace check has errors") (errors tc.report = 0);
  tc

let verify t ~seed c ~cache_size ~policy_name (r : Sch.result) ~len what =
  let v =
    call "exec.executor.verify_sched" (fun () ->
        Ex.verify_sched ~seed ~backends:[ `F64; `Zp ] c ~cache_size ~policy_name r)
  in
  add t "exec.executor.verify_sched.events" (len * List.length v.reports);
  check t
    (what ^ ": executed result or counters diverge")
    (call "exec.executor.verification_ok" (fun () -> Ex.verification_ok v))

(* --- spill-n64: explicit pipeline, no recomputation --- *)

let spill_configs = function
  | Full -> [ ("Strassen", 64, 1024); ("Strassen", 32, 256); ("Winograd", 32, 256) ]
  | Smoke -> [ ("Strassen", 16, 64); ("Winograd", 8, 32) ]

let spill_config t (alg, n, m, seeds) =
  let c, w, order = build t alg ~n in
  let lru = call "machine.schedulers.run_lru" (fun () -> Sch.run_lru w ~cache_size:m order) in
  let belady =
    call "machine.schedulers.run_belady" (fun () -> Sch.run_belady w ~cache_size:m order)
  in
  let runs =
    List.map (fun (policy, r) -> (policy, r, trace_length r)) [ ("lru", lru); ("belady", belady) ]
  in
  List.iter
    (fun (policy, (r : Sch.result), len) ->
      if policy = "lru" then add t "machine.schedulers.run_lru.events" len;
      let io = trace_io r.counters in
      add t "io_words" io;
      check_exact t (alg, n, m, policy) io;
      let what = Printf.sprintf "%s n=%d M=%d %s" (A.name alg) n m policy in
      ignore (trace_check t ~cache_size:m w r ~len what))
    runs;
  let order = Array.of_list order in
  ignore (call "analysis.dataflow.order_liveness" (fun () -> Df.order_liveness w order));
  List.iter2
    (fun (policy, r, len) seed ->
      let what = Printf.sprintf "%s n=%d M=%d %s" (A.name alg) n m policy in
      verify t ~seed c ~cache_size:m ~policy_name:policy r ~len what)
    runs seeds;
  let split = call "sched.generator.split_order" (fun () -> G.split_order w ~procs order) in
  add t "sched.generator.crossing_words" split.crossing;
  check_exact t (alg, n, m, "split-order") split.crossing;
  let replay =
    call "sched.generator.validate" (fun () ->
        G.validate w ~procs ~assignment:split.assignment)
  in
  check t
    (Printf.sprintf "%s n=%d: generated split does not replay clean" (A.name alg) n)
    (errors replay.report = 0 && replay.lost_outputs = 0);
  let px = call "machine.par_exec.run" (fun () -> Px.run w ~procs ~assignment:split.assignment) in
  check t
    (Printf.sprintf "%s n=%d: split crossing %d <> Par_exec words %d" (A.name alg) n
       split.crossing px.total_words)
    (split.crossing = px.total_words)

let spill ~seed size =
  let configs =
    List.mapi
      (fun k (name, n, m) ->
        (lookup name, n, m, List.map (fun p -> Prng.derive ~seed [ 1; k; p ]) [ 0; 1 ]))
      (spill_configs size)
  in
  fun t -> List.iter (spill_config t) configs

(* --- remat-n16: the recomputation pipeline --- *)

let remat_configs = function
  | Full -> [ ("Strassen", 16, 64); ("Winograd", 16, 64) ]
  | Smoke -> [ ("Strassen", 8, 32); ("Winograd", 8, 32) ]

let remat_config t (alg, n, m, seed) =
  let c, w, order = build t alg ~n in
  let r =
    call "machine.schedulers.run_rematerialize" (fun () ->
        Sch.run_rematerialize w ~cache_size:m order)
  in
  let len = trace_length r in
  add t "machine.schedulers.run_rematerialize.recomputes" r.counters.recomputes;
  add t "machine.schedulers.run_rematerialize.computes" r.counters.computes;
  let io = trace_io r.counters in
  add t "io_words" io;
  check_exact t (alg, n, m, "remat") io;
  let what = Printf.sprintf "%s n=%d M=%d remat" (A.name alg) n m in
  let tc = trace_check t ~cache_size:m w r ~len what in
  let prof = call "analysis.dataflow.trace_profile" (fun () -> Df.trace_profile w r.trace) in
  check t (what ^ ": static min cache <> dynamic peak") (prof.min_cache = tc.peak_occupancy);
  let cert = call "analysis.certify.run" (fun () -> Ct.run ~jobs:1 ~cdag:c ~cache_size:m w ~order) in
  check t (what ^ ": not certified") (call "analysis.certify.certified" (fun () -> Ct.certified cert));
  verify t ~seed c ~cache_size:m ~policy_name:"remat" r ~len what;
  c

let optimize t ~seed c ~cache_size =
  let rep =
    call "opt.optimizer.optimize_cdag" (fun () ->
        O.optimize_cdag ~jobs:1 ~beam:2 ~iters:1 ~seed c ~cache_size)
  in
  add t "opt.optimizer.evaluated" rep.evaluated;
  add t "opt.optimizer.accepted" rep.accepted;
  add t "opt.optimizer.rejected" rep.rejected;
  add t "opt.optimizer.oracle_replayed" rep.oracle_replayed;
  add t "opt.optimizer.oracle_total" rep.oracle_total;
  let fixed = List.filter_map snd rep.baselines in
  check t "optimizer: best schedule worse than a fixed policy"
    (fixed <> [] && rep.best.io <= List.fold_left min max_int fixed)

let remat ~seed size =
  let configs =
    List.mapi
      (fun k (name, n, m) -> (lookup name, n, m, Prng.derive ~seed [ 2; k ]))
      (remat_configs size)
  in
  let opt_seed = Prng.derive ~seed [ 3 ] in
  fun t ->
    let cdags = List.map (remat_config t) configs in
    (* the optimizer runs on the first configuration, Strassen *)
    let _, _, m, _ = List.hd configs in
    optimize t ~seed:opt_seed (List.hd cdags) ~cache_size:m

(* --- stream-n128: implicit streaming, nothing materialized --- *)

let stream_config = function
  | Full -> (128, 1024, 64)
  | Smoke -> (16, 64, 16)

let census_n = 1024

let stream ~seed:_ size =
  let alg = lookup "Strassen" in
  let n, m, r = stream_config size in
  fun t ->
    let imp = call "cdag.implicit.create" (fun () -> Im.create alg ~n) in
    add t "machine.stream_exec.run_lru.vertices"
      (call "cdag.implicit.n_vertices" (fun () -> Im.n_vertices imp));
    let counters = call "machine.stream_exec.run_lru" (fun () -> Sx.run_lru imp ~cache_size:m ()) in
    let io = trace_io counters in
    add t "io_words" io;
    check_exact t (alg, n, m, "stream-lru") io;
    let seg, seg_counters =
      call "machine.segments.analyze_implicit" (fun () ->
          Seg.analyze_implicit imp ~cache_size:m ~r ())
    in
    check t "segment fold counters <> stream counters" (seg_counters = counters);
    check t "Lemma 3.6 fails on the stream"
      (call "machine.segments.lemma_3_6_holds" (fun () -> Seg.lemma_3_6_holds seg));
    let live =
      call "analysis.dataflow.implicit_order_liveness" (fun () -> Df.implicit_order_liveness imp)
    in
    let lb =
      call "analysis.dataflow.streamed_io_lower_bound" (fun () ->
          Df.streamed_io_lower_bound live ~cache_size:m)
    in
    check t (Printf.sprintf "static I/O bound %d above stream I/O %d" lb io) (lb <= io);
    let split = call "sched.generator.split_implicit" (fun () -> G.split_implicit imp ~procs) in
    add t "sched.generator.crossing_words" split.crossing;
    check_exact t (alg, n, m, "split-implicit") split.crossing;
    check t "implicit lint has errors"
      (errors (call "analysis.cdag_lint.lint_implicit" (fun () -> Lint.lint_implicit imp)) = 0);
    let big = call "cdag.implicit.create" (fun () -> Im.create alg ~n:census_n) in
    let stats = call "cdag.implicit.stats" (fun () -> Im.stats big) in
    let levels = call "cdag.implicit.levels" (fun () -> Im.levels big) in
    (* Lemma 2.2 at the root: t^L leaf multiplications *)
    check t "census: mult <> t^L"
      (List.assoc_opt "mult" stats = Some (int_of_float (float_of_int (A.rank alg) ** float_of_int levels)))

(* --- dense-n1024: float64 kernels --- *)

let dense_size = function Full -> (1024, [ 64; 128 ]) | Smoke -> (128, [ 16; 32 ])

let operands ~seed size =
  let n, _ = dense_size size in
  let gen k = call "exec.kernel.random" (fun () -> K.random (Prng.create ~seed:(Prng.derive ~seed [ 4; k ])) n) in
  let a = gen 0 in
  (a, gen 1)

let panel_words n =
  let nblocks = (n + K.nb_default - 1) / K.nb_default in
  (* B is packed once per (column block, depth block): n^2 words in
     all; A once per (column block, depth block, row block). *)
  (n * n) + (nblocks * n * n)

let total (f : K.flops) = f.adds + f.mults

let dense ~seed size =
  let _, cutoffs = dense_size size in
  let algs = [ lookup "Strassen"; lookup "Winograd" ] in
  let a, b = operands ~seed size in
  fun t ->
    let n = a.K.n in
    let reference = call "exec.kernel.blocked_mul" (fun () -> K.blocked_mul a b) in
    let classical = total (call "exec.kernel.classical_flops" (fun () -> K.classical_flops n)) in
    add t "exec.kernel.blocked_mul.flops" classical;
    add t "io_words" (panel_words n);
    List.iter
      (fun alg ->
        List.iter
          (fun cutoff ->
            let c, fl = call "exec.kernel.fast_mul" (fun () -> K.fast_mul ~cutoff alg a b) in
            add t "exec.kernel.fast_mul.flops" (total fl);
            add t "exec.kernel.fast_mul.classical_flops" classical;
            (* every leaf is one blocked_mul of size [leaf]: leaf^3 mults *)
            let rec leaf r = if r <= cutoff || r mod 2 <> 0 then r else leaf (r / 2) in
            let leaf = leaf n in
            add t "io_words" (fl.mults / (leaf * leaf * leaf) * panel_words leaf);
            let err = call "exec.kernel.rel_err" (fun () -> K.rel_err c ~reference) in
            check t
              (Printf.sprintf "%s cutoff %d: rel err %g > 1e-11" (A.name alg) cutoff err)
              (err <= 1e-11))
          cutoffs)
      algs

let all =
  [
    { name = "spill-n64"; prepare = spill };
    { name = "remat-n16"; prepare = remat };
    { name = "stream-n128"; prepare = stream };
    { name = "dense-n1024"; prepare = dense };
  ]

let find name = List.find_opt (fun w -> w.name = name) all
