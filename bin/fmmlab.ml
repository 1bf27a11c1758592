(* fmmlab: command-line laboratory for the I/O-complexity of fast
   matrix multiplication with recomputations.

     fmmlab bounds    -n 4096 -m 4096 -p 49     lower bounds (Table I)
     fmmlab verify    -a Strassen               lemma battery (Sec. III)
     fmmlab simulate  -n 16 -m 64 [--remat]     sequential machine run
     fmmlab analyze   -n 8 -m 64 [--corrupt x]  static CDAG/trace/parallel lint
     fmmlab pebble    [--red 4]                 exact pebbling studies
     fmmlab cdag      -a Strassen -n 4 [-o f]   build/export a CDAG
     fmmlab hybrid    -n 64 --sweep [--mems 64,256,1024] [--json f]
     fmmlab optimize  -n 16 -m 64 [--beam 4] [--iters 4] [--seed 1] [--json f]
     fmmlab faults    -n 16 --fail 2 [--policy recompute,refetch] [--json f]
     fmmlab bench     [--filter T1,RC] [--json f] [--baseline f] [--jobs N]
     fmmlab table1                              regenerate Table I

   verify and bench accept --jobs N (env FMMLAB_JOBS, default 1): run
   independent work — registry experiments, per-algorithm batteries,
   lemma samples — on N domains. Results and reports are byte-identical
   at any N; only wall clocks move. *)

open Cmdliner

module A = Fmm_bilinear.Algorithm
module S = Fmm_bilinear.Strassen
module B = Fmm_bounds.Bounds
module Cd = Fmm_cdag.Cdag
module Ord = Fmm_machine.Orders
module Sch = Fmm_machine.Schedulers
module Tr = Fmm_machine.Trace
module T = Fmm_util.Table

let algorithm_arg =
  let doc =
    "Algorithm name: Strassen, Winograd, Winograd^T, classical <2,2,2;8>, ..."
  in
  Arg.(value & opt string "Strassen" & info [ "a"; "algorithm" ] ~doc)

let find_algorithm name =
  match S.find name with
  | Some alg -> alg
  | None ->
    (match name with
    | "Winograd^T" -> S.winograd_transposed
    | "KS" | "ks" -> Fmm_bilinear.Alt_basis.ks_core
    | _ ->
      (* tolerate case variations: "strassen" = "Strassen" *)
      let canon = String.lowercase_ascii in
      (match
         List.find_opt (fun a -> canon (A.name a) = canon name) S.registry
       with
      | Some alg -> alg
      | None when canon name = "winograd^t" -> S.winograd_transposed
      | None ->
        Printf.eprintf "unknown algorithm %S; known: %s\n" name
          (String.concat ", " (List.map A.name S.registry));
        exit 2))

let n_arg default =
  Arg.(value & opt int default & info [ "n" ] ~doc:"Matrix dimension")

let unsupported ~cmd msg =
  Printf.eprintf "fmmlab %s: unsupported configuration: %s\n" cmd msg;
  exit 2

(* A cache too small for a policy's schedule is found only by running
   it (at n = 16 rematerialization fails at M = 8 where LRU runs at
   M = 5), and it is a configuration the machine cannot run, not a bug:
   exit 2 like the configurations rejected up front. *)
let schedule_or_exit ~cmd f =
  match f () with
  | v -> v
  | exception Sch.Cache_too_small msg -> unsupported ~cmd msg

let m_arg default =
  Arg.(value & opt int default & info [ "m"; "memory" ] ~doc:"Fast/local memory size")

let p_arg default =
  Arg.(value & opt int default & info [ "p"; "procs" ] ~doc:"Processor count")

let jobs_arg =
  let doc =
    "Run independent work (registry experiments, per-algorithm batteries, \
     lemma samples) on $(docv) domains. Results are byte-identical at any \
     $(docv); only wall clocks change. 1 = sequential."
  in
  Arg.(
    value & opt int 1
    & info [ "j"; "jobs" ] ~env:(Cmd.Env.info "FMMLAB_JOBS") ~doc ~docv:"N")

(* --- bounds --- *)

let bounds_cmd =
  let run n m p =
    let t =
      T.create ~title:(Printf.sprintf "lower bounds at n=%d M=%d P=%d" n m p)
        ~headers:[ "algorithm"; "memory-dependent"; "memory-independent"; "max" ]
        ~aligns:[ T.Left; T.Right; T.Right; T.Right ] ()
    in
    List.iter
      (fun row ->
        let md = row.B.memdep ~n ~m ~p and mi = row.B.memind ~n ~p in
        T.add_row t
          [ row.B.algorithm; T.fmt_sci md; T.fmt_sci mi; T.fmt_sci (Float.max md mi) ])
      B.table1_rows;
    T.print t;
    Printf.printf "FFT (for comparison): memdep %s, memind %s\n"
      (T.fmt_sci (B.fft_memdep ~n ~m ~p))
      (T.fmt_sci (B.fft_memind ~n ~p));
    Printf.printf "Strassen crossover P* at this n, M: %d\n" (B.crossover_p ~n ~m ())
  in
  Cmd.v (Cmd.info "bounds" ~doc:"Evaluate the Table I lower bounds")
    Term.(const run $ n_arg 4096 $ m_arg 4096 $ p_arg 1)

(* --- verify --- *)

let verify_cmd =
  let run name all deep jobs =
    let jobs = max 1 jobs in
    let algorithms = if all then S.registry else [ find_algorithm name ] in
    (* --all fans out across algorithms; a single algorithm hands the
       pool to the engine's per-sample fan-out instead. Never both, so
       at most [jobs] domains are ever live. *)
    let outer = if List.length algorithms > 1 then jobs else 1 in
    let inner = if List.length algorithms > 1 then 1 else jobs in
    (* The deep battery builds H^{n x n}, which needs a square base and
       an n that is a power of the base dimension: prefer n = 4, fall
       back to one recursion level, skip rectangular bases. *)
    let deep_n alg =
      let n0, m0, k0 = Fmm_bilinear.Algorithm.dims alg in
      if n0 <> m0 || m0 <> k0 then None
      else if Fmm_util.Combinat.is_power_of ~base:n0 4 then Some 4
      else Some n0
    in
    let reports =
      Fmm_par.Pool.map ~jobs:outer
        (fun alg ->
          match (deep, deep_n alg) with
          | true, Some n ->
            Fmm_lemmas.Engine.deep_report_to_string
              (Fmm_lemmas.Engine.deep_check_algorithm ~n ~jobs:inner alg)
          | true, None ->
            Fmm_lemmas.Engine.report_to_string
              (Fmm_lemmas.Engine.check_algorithm alg)
            ^ "\n  (deep checks skipped: base case is not square)"
          | false, _ ->
            Fmm_lemmas.Engine.report_to_string
              (Fmm_lemmas.Engine.check_algorithm alg))
        algorithms
    in
    List.iter
      (fun r ->
        print_endline r;
        print_newline ())
      reports
  in
  let all_arg =
    Arg.(value & flag & info [ "all" ] ~doc:"Check every registered algorithm")
  in
  let deep_arg =
    Arg.(value & flag
        & info [ "deep" ]
            ~doc:"Also sample the CDAG-level lemmas (3.7, 3.11, 2.2) on H^{4x4}")
  in
  Cmd.v
    (Cmd.info "verify" ~doc:"Machine-check the Section III lemmas on an algorithm")
    Term.(const run $ algorithm_arg $ all_arg $ deep_arg $ jobs_arg)

(* --- simulate --- *)

let simulate_cmd =
  let run name n m remat order_name =
    let alg = find_algorithm name in
    let cdag = Cd.build alg ~n in
    let order =
      match order_name with
      | "dfs" -> Ord.recursive_dfs cdag
      | "naive" -> Ord.naive_topo cdag
      | "random" -> Ord.random_topo ~seed:1 cdag
      | o ->
        Printf.eprintf "unknown order %S (dfs|naive|random)\n" o;
        exit 2
    in
    let workload = Fmm_machine.Workload.of_cdag cdag in
    let res =
      schedule_or_exit ~cmd:"simulate" (fun () ->
          if remat then Sch.run_rematerialize workload ~cache_size:m order
          else Sch.run_lru workload ~cache_size:m order)
    in
    let c = res.Sch.counters in
    Printf.printf "algorithm   %s\n" (A.name alg);
    Printf.printf "n           %d\nM           %d\norder       %s\npolicy      %s\n"
      n m order_name (if remat then "rematerialize" else "LRU spill");
    Printf.printf "loads       %d\nstores      %d\nI/O         %d\n" c.Tr.loads
      c.Tr.stores (Tr.io c);
    Printf.printf "computes    %d (recomputed %d)\n" c.Tr.computes c.Tr.recomputes;
    let bound = B.fast_sequential ~n ~m () in
    Printf.printf "Thm 1.1     %.1f   (measured/bound = %.2f)\n" bound
      (float_of_int (Tr.io c) /. bound)
  in
  let remat_arg =
    Arg.(value & flag & info [ "remat" ] ~doc:"Recompute instead of spilling")
  in
  let order_arg =
    Arg.(value & opt string "dfs" & info [ "order" ] ~doc:"dfs | naive | random")
  in
  Cmd.v
    (Cmd.info "simulate" ~doc:"Run a schedule on the two-level machine model")
    Term.(const run $ algorithm_arg $ n_arg 16 $ m_arg 64 $ remat_arg $ order_arg)

(* --- analyze --- *)

let analyze_cmd =
  let module An_d = Fmm_analysis.Diagnostic in
  let module An_c = Fmm_analysis.Cdag_lint in
  let module An_t = Fmm_analysis.Trace_check in
  let module An_p = Fmm_analysis.Par_check in
  let module An_cert = Fmm_analysis.Certify in
  let module An_j = Fmm_analysis.Analyze_json in
  let module PE = Fmm_machine.Par_exec in
  let module Json = Fmm_obs.Json in
  let run name n m order_name depth corrupt machine limit certify max_warnings
      json_out jobs =
    let alg = find_algorithm name in
    let cdag = Cd.build alg ~n in
    let work = Fmm_machine.Workload.of_cdag cdag in
    let order =
      match order_name with
      | "dfs" -> Ord.recursive_dfs cdag
      | "naive" -> Ord.naive_topo cdag
      | "random" -> Ord.random_topo ~seed:1 cdag
      | o ->
        Printf.eprintf "unknown order %S (dfs|naive|random)\n" o;
        exit 2
    in
    (* pass 1: CDAG structure *)
    let lint_report = An_c.lint cdag in
    (* pass 2: an LRU trace of the schedule, optionally corrupted *)
    let res = schedule_or_exit ~cmd:"analyze" (fun () -> Sch.run_lru work ~cache_size:m order) in
    let trace =
      match corrupt with
      | "none" | "race" -> res.Sch.trace
      | "missing-load" ->
        (* delete the first Load: its consumer's Compute loses an
           operand at a precise step *)
        let removed = ref false in
        Tr.of_list
          (List.filter
             (fun e ->
               match e with
               | Tr.Load _ when not !removed ->
                 removed := true;
                 false
               | _ -> true)
             (Tr.to_list res.Sch.trace))
      | "overflow" ->
        (* delete every Evict: occupancy climbs past M *)
        Tr.of_list
          (List.filter (function Tr.Evict _ -> false | _ -> true) (Tr.to_list res.Sch.trace))
      | o ->
        Printf.eprintf "unknown corruption %S (none|missing-load|overflow|race)\n" o;
        exit 2
    in
    let trace_result = An_t.check ~cache_size:m work trace in
    (* pass 3: BFS-partitioned parallel assignment under a topological
       order (corrupt = race swaps a cross-processor producer behind
       its consumer) *)
    let procs = Fmm_util.Combinat.pow_int (A.rank alg) depth in
    let assignment = PE.bfs_assignment cdag ~depth ~procs in
    let par_order =
      let is_input = Fmm_machine.Workload.is_input work in
      let base =
        match Fmm_graph.Digraph.topo_sort (Cd.graph cdag) with
        | Some o -> List.filter (fun v -> not (is_input v)) o
        | None -> []
      in
      if corrupt <> "race" then base
      else begin
        let g = Cd.graph cdag in
        let cross = ref None in
        List.iter
          (fun v ->
            if !cross = None && not (is_input v) then
              List.iter
                (fun u ->
                  if
                    !cross = None
                    && (not (is_input u))
                    && assignment.(u) <> assignment.(v)
                  then cross := Some (u, v))
                (Fmm_graph.Digraph.in_neighbors g v))
          base;
        match !cross with
        | None -> base
        | Some (u, v) ->
          (* swap producer and consumer positions: u now runs after v *)
          List.map (fun x -> if x = u then v else if x = v then u else x) base
      end
    in
    let par_result = An_p.check ~order:par_order work ~procs ~assignment in
    (* pass 4 (--certify): static analyses vs dynamic scheduler evidence *)
    let cert =
      if certify then
        Some (An_cert.run ~jobs:(max 1 jobs) ~cdag ~cache_size:m work ~order)
      else None
    in
    let reports =
      [
        (Printf.sprintf "CDAG lint: %s H^{%dx%d}" (A.name alg) n n, lint_report);
        ( Printf.sprintf "trace check: LRU/%s at M=%d (%d events)" order_name m
            (Tr.length trace),
          trace_result.An_t.report );
        ( Printf.sprintf "parallel race check: BFS depth %d on %d processors"
            depth procs,
          par_result.An_p.report );
      ]
      @
      match cert with
      | None -> []
      | Some c ->
        [
          ( Printf.sprintf "certifier: static vs dynamic at M=%d (%s order)" m
              order_name,
            c.An_cert.report );
        ]
    in
    List.iter
      (fun (title, r) ->
        let r = { r with An_d.title } in
        if machine then (
          let s = An_d.render ~machine:true r in
          if s <> "" then print_endline s)
        else begin
          print_endline (An_d.render ~limit r);
          print_newline ()
        end)
      reports;
    (match cert with
    | Some c when not machine ->
      Printf.printf
        "certifier: MAXLIVE %d (inputs %d, outputs %d), static I/O lower \
         bound %d at M=%d\n"
        c.An_cert.maxlive c.An_cert.inputs_used c.An_cert.outputs_stored
        c.An_cert.io_lower_bound m;
      (match (c.An_cert.segment_r, c.An_cert.segment_bound) with
      | Some r, Some b ->
        Printf.printf "certifier: Lemma 3.6 at r=%d: bound %d, min \
                       full-segment I/O %s\n" r b
          (match c.An_cert.segment_min_io with
          | Some x -> string_of_int x
          | None -> "-")
      | _ -> ());
      let t =
        T.create ~title:"policy cross-check (static min-cache vs dynamic peak)"
          ~headers:
            [ "policy"; "I/O"; "peak"; "min-cache"; "agree"; "dead";
              "redundant"; "recomputes" ]
          ~aligns:
            [ T.Left; T.Right; T.Right; T.Right; T.Left; T.Right; T.Right;
              T.Right ] ()
      in
      List.iter
        (fun (row : An_cert.policy_row) ->
          if row.An_cert.feasible then
            T.add_row t
              [
                row.An_cert.policy;
                string_of_int row.An_cert.io;
                string_of_int row.An_cert.peak_occupancy;
                string_of_int row.An_cert.min_cache;
                (if row.An_cert.agree then "yes" else "NO");
                string_of_int row.An_cert.dead_loads;
                string_of_int row.An_cert.redundant_stores;
                string_of_int row.An_cert.recomputes;
              ]
          else T.add_row t [ row.An_cert.policy; "-"; "-"; "-"; "-"; "-"; "-"; "-" ])
        c.An_cert.rows;
      T.print t;
      Printf.printf "certified: %b\n\n" (An_cert.certified c)
    | _ -> ());
    (match json_out with
    | None -> ()
    | Some path ->
      let t =
        {
          An_j.algorithm = A.name alg;
          n;
          cache_size = m;
          order = order_name;
          depth;
          procs;
          corrupt;
          passes =
            List.map
              (fun (title, (r : An_d.report)) ->
                { An_j.title; diags = r.An_d.diags })
              reports;
          certify = Option.map An_j.certify_of_result cert;
        }
      in
      Json.to_file path (An_j.to_json t);
      if not machine then Printf.printf "wrote %s (schema %s)\n" path An_j.schema);
    let total = An_d.merge ~title:"all" (List.map snd reports) in
    let errors = An_d.n_errors total in
    let warnish = An_d.n_warnings total + An_d.n_lints total in
    if not machine then
      Printf.printf
        "analyze: %d error(s), %d warning(s), %d lint(s), %d info(s) across %d \
         passes%s\n"
        errors (An_d.n_warnings total) (An_d.n_lints total) (An_d.n_infos total)
        (List.length reports)
        (if corrupt <> "none" then Printf.sprintf " [corruption: %s]" corrupt
         else "");
    (* exit contract: errors always fail; warnings + lints only fail
       when the caller opted in with --max-warnings *)
    if errors > 0 then exit 1;
    match max_warnings with
    | Some k when warnish > k ->
      if not machine then
        Printf.printf "analyze: %d warning(s)+lint(s) exceed --max-warnings %d\n"
          warnish k;
      exit 1
    | _ -> ()
  in
  let order_arg =
    Arg.(value & opt string "dfs" & info [ "order" ] ~doc:"dfs | naive | random")
  in
  let depth_arg =
    Arg.(value & opt int 1 & info [ "depth" ] ~doc:"BFS partition depth for the parallel pass")
  in
  let corrupt_arg =
    Arg.(
      value & opt string "none"
      & info [ "corrupt" ]
          ~doc:
            "Seed a defect before checking: missing-load | overflow | race \
             (demonstrates diagnostic location)")
  in
  let machine_arg =
    Arg.(value & flag & info [ "machine" ] ~doc:"Tab-separated machine-readable output")
  in
  let limit_arg =
    Arg.(value & opt int 25 & info [ "limit" ] ~doc:"Max diagnostics printed per pass")
  in
  let certify_arg =
    Arg.(
      value & flag
      & info [ "certify" ]
          ~doc:
            "Run the certifier pass: static MAXLIVE/min-cache and the static \
             I/O lower bound cross-checked against LRU/Belady/rematerialize \
             traces, plus the Lemma 3.6 segment bound")
  in
  let max_warnings_arg =
    Arg.(
      value & opt (some int) None
      & info [ "max-warnings" ]
          ~doc:
            "Also exit 1 when warnings + lints exceed $(docv) (by default \
             only errors affect the exit code)"
          ~docv:"N")
  in
  let json_arg =
    let doc = "Write the fmm-analyze/v1 report (passes + certifier) to $(docv)." in
    Arg.(value & opt (some string) None & info [ "json" ] ~doc ~docv:"FILE")
  in
  Cmd.v
    (Cmd.info "analyze"
       ~doc:
         "Statically verify a CDAG, an LRU trace and a parallel assignment \
          (exit 1 on errors; warnings/lints gate only under --max-warnings)")
    Term.(
      const run $ algorithm_arg $ n_arg 8 $ m_arg 64 $ order_arg $ depth_arg
      $ corrupt_arg $ machine_arg $ limit_arg $ certify_arg $ max_warnings_arg
      $ json_arg $ jobs_arg)

(* --- pebble --- *)

let pebble_cmd =
  let run red =
    let module Pb = Fmm_pebble.Pebble in
    let module Pd = Fmm_pebble.Pebble_dags in
    let show name game =
      match Pb.compare_recomputation game with
      | Some w, Some wo ->
        Printf.printf "%-36s with=%d without=%d%s\n" name w wo
          (if w < wo then "  <- separation" else "")
      | _ -> Printf.printf "%-36s search exhausted\n" name
    in
    show "Savage-style DAG (R=3)" (Pd.recomputation_wins ());
    show
      (Printf.sprintf "Strassen encoder A (R=%d)" red)
      (Pd.encoder_game S.strassen Fmm_cdag.Encoder.A_side ~red_limit:red);
    let cdag = Cd.build S.strassen ~n:2 in
    show
      (Printf.sprintf "H^{2x2} C21 fragment (R=%d)" red)
      (Pd.of_cdag_outputs cdag ~outputs:[ (Cd.outputs cdag).(2) ] ~red_limit:red)
  in
  let red_arg =
    Arg.(value & opt int 4 & info [ "red" ] ~doc:"Red pebble limit")
  in
  Cmd.v
    (Cmd.info "pebble" ~doc:"Exact red-blue pebbling, with vs without recomputation")
    Term.(const run $ red_arg)

(* --- cdag --- *)

let cdag_cmd =
  let run name n output =
    let alg = find_algorithm name in
    let cdag = Cd.build alg ~n in
    List.iter (fun (k, v) -> Printf.printf "%-10s %d\n" k v) (Cd.stats cdag);
    match output with
    | None -> ()
    | Some path ->
      let oc = open_out path in
      output_string oc (Cd.to_dot cdag);
      close_out oc;
      Printf.printf "DOT written to %s\n" path
  in
  let out_arg =
    Arg.(value & opt (some string) None & info [ "o"; "output" ] ~doc:"DOT output file")
  in
  Cmd.v
    (Cmd.info "cdag" ~doc:"Build H^{nxn} and print its census / export DOT")
    Term.(const run $ algorithm_arg $ n_arg 4 $ out_arg)

(* --- census (implicit CDAG; n = 256..1024 and beyond) --- *)

(* Degenerate configurations (n = 1, rectangular or 1x1 bases, n not a
   power of the base dimension, hybrid cutoffs outside [1, n] or not a
   power of the base dimension) have no recursive CDAG to census or
   execute; reject them up front with a diagnostic and exit code 2 —
   the same convention as unknown algorithm/policy names. *)
let check_config ?(cutoff = 1) alg ~n ~cmd =
  match Fmm_exec.Executor.validate_config ~cutoff alg ~n with
  | Ok () -> ()
  | Error msg -> unsupported ~cmd msg

let cutoff_arg =
  let doc =
    "Hybrid cutoff $(docv): run the fast recursion down to $(docv) and \
     finish with classical multiplication (1 = uniform fast CDAG). Must be \
     a power of the base dimension, between 1 and n."
  in
  Arg.(value & opt int 1 & info [ "cutoff" ] ~doc ~docv:"N0")

let census_cmd =
  let run name n cutoff analyze maxlive do_lint m r_opt =
    let alg = find_algorithm name in
    check_config ~cutoff alg ~n ~cmd:"census";
    let module Im = Fmm_cdag.Implicit in
    let imp =
      (* a CDAG whose vertex or edge count overflows an int *)
      match Im.create ~cutoff alg ~n with
      | imp -> imp
      | exception Invalid_argument msg -> unsupported ~cmd:"census" msg
    in
    Printf.printf "implicit CDAG %s H^{%dx%d} (%d recursion levels%s)\n"
      (A.name alg) n n (Im.levels imp)
      (if cutoff > 1 then Printf.sprintf ", cutoff %d" cutoff else "");
    List.iter (fun (k, v) -> Printf.printf "%-10s %d\n" k v) (Im.stats imp);
    (* Lemma 2.2 table: every sub-problem size of the recursion *)
    let n0, _, _ = A.dims alg in
    Printf.printf "\nLemma 2.2 sub-problem selections:\n";
    Printf.printf "%8s %8s %14s %16s %16s\n" "depth" "r" "nodes" "|V_out|"
      "|V_inp|";
    for d = 0 to Im.levels imp do
      let r = n / Fmm_util.Combinat.pow_int n0 d in
      Printf.printf "%8d %8d %14d %16d %16d\n" d r
        (Im.node_count_at_depth imp ~depth:d)
        (Im.sub_output_count imp ~r)
        (Im.sub_input_count imp ~r)
    done;
    if do_lint then begin
      let report = Fmm_analysis.Cdag_lint.lint_implicit imp in
      Printf.printf "\nimplicit lint: %d error(s), %d warning(s)\n"
        (Fmm_analysis.Diagnostic.n_errors report)
        (Fmm_analysis.Diagnostic.n_warnings report);
      if not (Fmm_analysis.Diagnostic.is_clean report) then
        print_string (Fmm_analysis.Diagnostic.render report)
    end;
    if maxlive then begin
      let s = Fmm_analysis.Dataflow.implicit_order_liveness imp in
      Printf.printf
        "\ncanonical order: MAXLIVE = %d, inputs used = %d, outputs stored = %d\n"
        s.Fmm_analysis.Dataflow.Streamed.maxlive
        s.Fmm_analysis.Dataflow.Streamed.inputs_used
        s.Fmm_analysis.Dataflow.Streamed.outputs_stored;
      Printf.printf "no-recomputation I/O lower bound at M = %d: %d\n" m
        (Fmm_analysis.Dataflow.streamed_io_lower_bound s ~cache_size:m)
    end;
    if analyze then begin
      (* Theorem 1.1 instantiation: r = 2 sqrt(M), rounded down to a
         valid sub-problem size (between the hybrid leaf and n) *)
      let r =
        match r_opt with
        | Some r -> r
        | None ->
          let target = 2. *. sqrt (float_of_int m) in
          let rec best r =
            if r * n0 <= n && float_of_int (r * n0) <= target then best (r * n0) else r
          in
          best cutoff
      in
      let module Seg = Fmm_machine.Segments in
      let t0 = Unix.gettimeofday () in
      let seg, counters =
        schedule_or_exit ~cmd:"census" (fun () -> Seg.analyze_implicit imp ~cache_size:m ~r ())
      in
      let dt = Unix.gettimeofday () -. t0 in
      Printf.printf "\nstreaming LRU at M = %d (%.1fs): %s\n" m dt
        (Format.asprintf "%a" Tr.pp_counters counters);
      Printf.printf "segments at r = %d, quota = %d: %d total, %d full\n" r
        seg.Seg.quota
        (List.length seg.Seg.segments)
        (List.length (Seg.full_segments seg));
      (match Seg.min_io_full_segments seg with
      | Some min_io ->
        Printf.printf "min I/O over full segments = %d vs bound %d\n" min_io
          seg.Seg.bound
      | None -> Printf.printf "no full segments (quota not reached)\n");
      Printf.printf "Lemma 3.6 holds: %b\n" (Seg.lemma_3_6_holds seg);
      let memdep = B.fast_sequential ~n ~m () in
      Printf.printf "I/O = %d, memdep bound = %.1f, ratio = %.2f\n"
        (Tr.io counters) memdep
        (float_of_int (Tr.io counters) /. memdep)
    end
  in
  let analyze_arg =
    Arg.(
      value & flag
      & info [ "analyze" ]
          ~doc:"Stream the canonical LRU execution and segment its I/O")
  in
  let maxlive_arg =
    Arg.(
      value & flag
      & info [ "maxlive" ] ~doc:"Compute MAXLIVE of the canonical order")
  in
  let lint_arg =
    Arg.(value & flag & info [ "lint" ] ~doc:"Run the sampled implicit lint")
  in
  let r_arg =
    Arg.(
      value
      & opt (some int) None
      & info [ "r" ] ~doc:"Sub-problem size for the segment analysis")
  in
  Cmd.v
    (Cmd.info "census"
       ~doc:
         "Censuses and streaming analyses of the implicit (recursion-indexed) \
          CDAG — runs at n = 256..1024 where the explicit graph cannot be \
          built")
    Term.(
      const run $ algorithm_arg $ n_arg 256 $ cutoff_arg $ analyze_arg
      $ maxlive_arg $ lint_arg $ m_arg 4096 $ r_arg)

(* --- exec (numeric execution backend) --- *)

let exec_cmd =
  let module Ex = Fmm_exec.Executor in
  let module Json = Fmm_obs.Json in
  let run name n m cutoff policy_name backend_spec seed tol json_out jobs =
    let alg = find_algorithm name in
    check_config ~cutoff alg ~n ~cmd:"exec";
    let policy =
      match Ex.policy_of_string policy_name with
      | Some p -> p
      | None ->
        Printf.eprintf "unknown policy %S (lru|belady|remat)\n" policy_name;
        exit 2
    in
    let backends =
      String.split_on_char ',' backend_spec
      |> List.filter (fun s -> String.trim s <> "")
      |> List.map (fun s ->
             match Ex.backend_kind_of_string (String.trim s) with
             | Some k -> k
             | None ->
               Printf.eprintf
                 "unknown backend %S; known: float64, zp65537, rat, bigint\n" s;
               exit 2)
    in
    if backends = [] then begin
      prerr_endline "no backend given";
      exit 2
    end;
    let cdag = Cd.build ~cutoff alg ~n in
    let sched = schedule_or_exit ~cmd:"exec" (fun () -> Ex.schedule cdag ~cache_size:m policy) in
    let pc = sched.Sch.counters in
    (* one execution per backend on the domain pool; each backend
       derives its own operand seed, so the report is byte-identical at
       any --jobs *)
    let reports =
      Fmm_par.Pool.map ~jobs:(max 1 jobs)
        (fun k -> Ex.run_backend ~tol cdag ~cache_size:m ~sched ~seed k)
        backends
    in
    Printf.printf "algorithm   %s\nn           %d\nM           %d\npolicy      %s\n"
      (A.name alg) n m policy_name;
    if cutoff > 1 then Printf.printf "cutoff      %d (hybrid)\n" cutoff;
    Printf.printf "scheduled   loads %d, stores %d, I/O %d, computes %d (recomputed %d)\n"
      pc.Tr.loads pc.Tr.stores (Tr.io pc) pc.Tr.computes pc.Tr.recomputes;
    let t =
      T.create ~title:"executed vs predicted"
        ~headers:
          [ "backend"; "result"; "max rel err"; "counters"; "loads"; "stores";
            "computes"; "peak occ" ]
        ~aligns:
          [ T.Left; T.Left; T.Right; T.Left; T.Right; T.Right; T.Right;
            T.Right ] ()
    in
    List.iter
      (fun r ->
        T.add_row t
          [
            r.Ex.backend;
            (if r.Ex.result_ok then if r.Ex.exact then "exact" else "ok"
             else "MISMATCH");
            (if r.Ex.exact then "0" else Printf.sprintf "%.2e" r.Ex.max_err);
            (if r.Ex.counters_ok then "match" else "DIVERGED");
            string_of_int r.Ex.executed.Tr.loads;
            string_of_int r.Ex.executed.Tr.stores;
            string_of_int r.Ex.executed.Tr.computes;
            string_of_int r.Ex.peak_occupancy;
          ])
      reports;
    T.print t;
    let ok = List.for_all Ex.report_ok reports in
    (match json_out with
    | None -> ()
    | Some path ->
      (* no wall clocks: a fixed (algorithm, n, M, policy, seed) tuple
         must serialize byte-identically at any --jobs *)
      let j =
        Json.Obj
          [
            ("schema", Json.Str "fmm-exec/v1");
            ("algorithm", Json.Str (A.name alg));
            ("n", Json.Int n);
            ("m", Json.Int m);
            ("cutoff", Json.Int cutoff);
            ("policy", Json.Str policy_name);
            ("seed", Json.Int seed);
            ("tol", Json.Float tol);
            ( "predicted",
              Json.Obj
                [
                  ("loads", Json.Int pc.Tr.loads);
                  ("stores", Json.Int pc.Tr.stores);
                  ("computes", Json.Int pc.Tr.computes);
                  ("recomputes", Json.Int pc.Tr.recomputes);
                ] );
            ( "backends",
              Json.List
                (List.map
                   (fun r ->
                     Json.Obj
                       [
                         ("backend", Json.Str r.Ex.backend);
                         ("exact", Json.Bool r.Ex.exact);
                         ("max_rel_err", Json.Float r.Ex.max_err);
                         ("result_ok", Json.Bool r.Ex.result_ok);
                         ("counters_ok", Json.Bool r.Ex.counters_ok);
                         ("loads", Json.Int r.Ex.executed.Tr.loads);
                         ("stores", Json.Int r.Ex.executed.Tr.stores);
                         ("computes", Json.Int r.Ex.executed.Tr.computes);
                         ("recomputes", Json.Int r.Ex.executed.Tr.recomputes);
                         ("peak_occupancy", Json.Int r.Ex.peak_occupancy);
                       ])
                   reports) );
            ("ok", Json.Bool ok);
          ]
      in
      Json.to_file path j;
      Printf.printf "wrote %s\n" path);
    if not ok then exit 1
  in
  let policy_arg =
    Arg.(
      value & opt string "lru"
      & info [ "policy" ] ~doc:"Schedule policy: lru | belady | remat"
          ~docv:"P")
  in
  let backend_arg =
    let doc =
      "Comma-separated element backends: float64, zp65537, rat, bigint."
    in
    Arg.(
      value & opt string "float64,zp65537"
      & info [ "backend" ] ~doc ~docv:"B,...")
  in
  let seed_arg =
    Arg.(
      value & opt int 0
      & info [ "seed" ] ~doc:"Operand PRNG master seed" ~docv:"S")
  in
  let tol_arg =
    Arg.(
      value & opt float 1e-9
      & info [ "tol" ] ~doc:"float64 max relative error tolerance" ~docv:"T")
  in
  let json_arg =
    let doc = "Write the execution report as JSON to $(docv)." in
    Arg.(value & opt (some string) None & info [ "json" ] ~doc ~docv:"FILE")
  in
  Cmd.v
    (Cmd.info "exec"
       ~doc:
         "Execute a verified schedule on real matrices and check the result \
          against classical multiplication and the predicted I/O counters")
    Term.(
      const run $ algorithm_arg $ n_arg 16 $ m_arg 512 $ cutoff_arg
      $ policy_arg $ backend_arg $ seed_arg $ tol_arg $ json_arg $ jobs_arg)

(* --- hybrid (cutoff-parameterized Strassen/classical family) --- *)

(* One measured (M, cutoff) point of the hybrid sweep. [hp_counters] is
   [Error msg] when no legal schedule exists at that M (a classical-leaf
   decoder of in-degree cutoff needs cutoff + 1 resident words, so small
   caches cannot run large cutoffs) — reported, never silently
   dropped. *)
type hybrid_point = {
  hp_m : int;
  hp_cutoff : int;
  hp_vertices : int;
  hp_edges : int;
  hp_counters : (Tr.counters, string) result;
  hp_bound : float;
  hp_adds : int;
  hp_mults : int;
}

let hp_io p =
  match p.hp_counters with Ok c -> Some (Tr.io c) | Error _ -> None

let hp_flops p = p.hp_adds + p.hp_mults

let hybrid_cmd =
  let module Ex = Fmm_exec.Executor in
  let module K = Fmm_exec.Kernel in
  let module Json = Fmm_obs.Json in
  let run name n mems_spec m cutoff sweep policy_name json_out jobs =
    let alg = find_algorithm name in
    let n0, _, _ = A.dims alg in
    check_config ~cutoff alg ~n ~cmd:"hybrid";
    let policy =
      match Ex.policy_of_string policy_name with
      | Some p -> p
      | None ->
        Printf.eprintf "unknown policy %S (lru|belady|remat)\n" policy_name;
        exit 2
    in
    let mems =
      if mems_spec = "" then [ m ]
      else
        String.split_on_char ',' mems_spec
        |> List.filter (fun s -> String.trim s <> "")
        |> List.map (fun s ->
               match int_of_string_opt (String.trim s) with
               | Some v when v > 0 -> v
               | _ ->
                 Printf.eprintf "fmmlab hybrid: bad memory size %S\n" s;
                 exit 2)
    in
    let cutoffs =
      if sweep then begin
        let rec up c acc = if c > n then List.rev acc else up (c * n0) (c :: acc) in
        up 1 []
      end
      else [ cutoff ]
    in
    (* One pool task per cutoff: the CDAG, its DFS order and the flop
       counters are computed once and reused for every memory size —
       only the cache simulation depends on M. Every field is
       deterministic (schedules and flop counters are value-free, the
       report carries no clocks) and the m-major re-grouping below is a
       pure function of the input lists, so the output is byte-identical
       at any --jobs. *)
    let by_cutoff =
      Fmm_par.Pool.map ~jobs:(max 1 jobs)
        (fun c ->
          let cdag = Cd.build ~cutoff:c alg ~n in
          let work = Fmm_machine.Workload.of_cdag cdag in
          let order = Ord.recursive_dfs cdag in
          (* the executor's arithmetic for the same (algorithm, n,
             cutoff) — the flop side of the NE2 crossover *)
          let rng = Fmm_util.Prng.create ~seed:1 in
          let a = K.random rng n in
          let b = K.random rng n in
          let _, fl = K.fast_mul ~cutoff:c alg a b in
          List.map
            (fun m ->
              let counters =
                match
                  match policy with
                  | Ex.Lru -> Sch.run_lru work ~cache_size:m order
                  | Ex.Belady -> Sch.run_belady work ~cache_size:m order
                  | Ex.Remat -> Sch.run_rematerialize work ~cache_size:m order
                with
                | s -> Ok s.Sch.counters
                | exception (Failure msg | Sch.Cache_too_small msg) -> Error msg
              in
              {
                hp_m = m;
                hp_cutoff = c;
                hp_vertices = Cd.n_vertices cdag;
                hp_edges = Cd.n_edges cdag;
                hp_counters = counters;
                hp_bound = B.hybrid_memdep ~n ~m ~p:1 ~cutoff:c ();
                hp_adds = fl.K.adds;
                hp_mults = fl.K.mults;
              })
            mems)
        cutoffs
    in
    let points =
      let all = List.concat by_cutoff in
      List.concat_map (fun m -> List.filter (fun p -> p.hp_m = m) all) mems
    in
    let t =
      T.create
        ~title:
          (Printf.sprintf "hybrid %s n=%d, policy %s" (A.name alg) n
             policy_name)
        ~headers:
          [ "M"; "cutoff"; "vertices"; "I/O"; "hybrid bound"; "ratio";
            "flops" ]
        ~aligns:[ T.Right; T.Right; T.Right; T.Right; T.Right; T.Right; T.Right ]
        ()
    in
    List.iter
      (fun p ->
        let io_s, ratio_s =
          match hp_io p with
          | Some io ->
            ( string_of_int io,
              Printf.sprintf "%.2f" (float_of_int io /. p.hp_bound) )
          | None -> ("infeasible", "-")
        in
        T.add_row t
          [
            string_of_int p.hp_m; string_of_int p.hp_cutoff;
            string_of_int p.hp_vertices; io_s;
            Printf.sprintf "%.1f" p.hp_bound; ratio_s;
            string_of_int (hp_flops p);
          ])
      points;
    T.print t;
    List.iter
      (fun p ->
        match p.hp_counters with
        | Error msg ->
          Printf.printf "note: M = %d, cutoff = %d infeasible: %s\n" p.hp_m
            p.hp_cutoff msg
        | Ok _ -> ())
      points;
    (* per-M optima: the I/O-optimal cutoff under the measured schedule,
       and the flop-optimal cutoff (M-independent — NE2's crossover
       axis) from the executor's counters *)
    let argmin f = function
      | [] -> None
      | x :: rest ->
        Some
          (List.fold_left (fun best y -> if f y < f best then y else best) x rest)
    in
    let optima =
      List.map
        (fun m ->
          let pts = List.filter (fun p -> p.hp_m = m) points in
          let feasible = List.filter (fun p -> hp_io p <> None) pts in
          let io_best =
            argmin (fun p -> match hp_io p with Some io -> io | None -> max_int)
              feasible
          in
          let flop_best = argmin hp_flops pts in
          (m, io_best, flop_best))
        mems
    in
    List.iter
      (fun (m, io_best, flop_best) ->
        match (io_best, flop_best) with
        | Some pi, Some pf ->
          Printf.printf
            "M = %-6d I/O-optimal cutoff = %d (I/O %d); flop-optimal cutoff \
             = %d (%d flops)\n"
            m pi.hp_cutoff
            (match hp_io pi with Some io -> io | None -> 0)
            pf.hp_cutoff (hp_flops pf)
        | _ ->
          Printf.printf "M = %-6d no feasible schedule at any cutoff\n" m)
      optima;
    let ok =
      List.for_all
        (fun p ->
          match hp_io p with
          | Some io -> float_of_int io >= p.hp_bound
          | None -> true)
        points
      && List.for_all (fun (_, io_best, _) -> io_best <> None) optima
    in
    if not ok then
      print_endline
        "BOUND VIOLATION: some measured I/O fell below the hybrid lower \
         bound (or a memory size has no feasible cutoff)";
    (match json_out with
    | None -> ()
    | Some path ->
      let j =
        Json.Obj
          [
            ("schema", Json.Str "fmm-hybrid/v1");
            ("algorithm", Json.Str (A.name alg));
            ("n", Json.Int n);
            ("policy", Json.Str policy_name);
            ("sweep", Json.Bool sweep);
            ( "points",
              Json.List
                (List.map
                   (fun p ->
                     Json.Obj
                       ([
                          ("m", Json.Int p.hp_m);
                          ("cutoff", Json.Int p.hp_cutoff);
                          ("vertices", Json.Int p.hp_vertices);
                          ("edges", Json.Int p.hp_edges);
                        ]
                       @ (match p.hp_counters with
                         | Ok pc ->
                           let io = Tr.io pc in
                           [
                             ("feasible", Json.Bool true);
                             ("loads", Json.Int pc.Tr.loads);
                             ("stores", Json.Int pc.Tr.stores);
                             ("io", Json.Int io);
                             ("bound_memdep", Json.Float p.hp_bound);
                             ( "ratio",
                               Json.Float (float_of_int io /. p.hp_bound) );
                             ( "within_bound",
                               Json.Bool (float_of_int io >= p.hp_bound) );
                           ]
                         | Error msg ->
                           [
                             ("feasible", Json.Bool false);
                             ("reason", Json.Str msg);
                             ("bound_memdep", Json.Float p.hp_bound);
                           ])
                       @ [
                           ("adds", Json.Int p.hp_adds);
                           ("mults", Json.Int p.hp_mults);
                         ]))
                   points) );
            ( "optima",
              Json.List
                (List.filter_map
                   (fun (m, io_best, flop_best) ->
                     match (io_best, flop_best) with
                     | Some pi, Some pf ->
                       Some
                         (Json.Obj
                            [
                              ("m", Json.Int m);
                              ("io_optimal_cutoff", Json.Int pi.hp_cutoff);
                              ( "min_io",
                                Json.Int
                                  (match hp_io pi with
                                  | Some io -> io
                                  | None -> 0) );
                              ("flop_optimal_cutoff", Json.Int pf.hp_cutoff);
                              ("min_flops", Json.Int (hp_flops pf));
                            ])
                     | _ -> None)
                   optima) );
            ("ok", Json.Bool ok);
          ]
      in
      Json.to_file path j;
      Printf.printf "wrote %s\n" path);
    if not ok then exit 1
  in
  let mems_arg =
    let doc =
      "Comma-separated fast-memory sizes to sweep (overrides -m), e.g. \
       64,256,1024."
    in
    Arg.(value & opt string "" & info [ "mems" ] ~doc ~docv:"M,...")
  in
  let sweep_arg =
    Arg.(
      value & flag
      & info [ "sweep" ]
          ~doc:
            "Sweep every cutoff (all powers of the base dimension from 1 to \
             n) instead of the single --cutoff, and report the I/O-optimal \
             cutoff per memory size.")
  in
  let policy_arg =
    Arg.(
      value & opt string "lru"
      & info [ "policy" ] ~doc:"Schedule policy: lru | belady | remat"
          ~docv:"P")
  in
  let json_arg =
    let doc = "Write the (clock-free) hybrid report as JSON to $(docv)." in
    Arg.(value & opt (some string) None & info [ "json" ] ~doc ~docv:"FILE")
  in
  Cmd.v
    (Cmd.info "hybrid"
       ~doc:
         "Measure hybrid Strassen/classical CDAGs across cutoffs: schedule \
          I/O vs De Stefani's hybrid lower bounds, plus the flop-optimal \
          cutoff from the executor's counters")
    Term.(
      const run $ algorithm_arg $ n_arg 64 $ mems_arg $ m_arg 256
      $ cutoff_arg $ sweep_arg $ policy_arg $ json_arg $ jobs_arg)

(* --- fft --- *)

let fft_cmd =
  let run n m =
    let module Bf = Fmm_fft.Butterfly in
    let bf = Bf.build ~n in
    let w = Bf.workload bf in
    Printf.printf "butterfly: %d vertices, %d edges, %d levels\n"
      (Bf.n_vertices bf)
      (Fmm_graph.Digraph.n_edges bf.Bf.graph)
      bf.Bf.levels;
    let order = Bf.blocked_order bf ~block:(max 2 (m / 4)) in
    let res = schedule_or_exit ~cmd:"fft" (fun () -> Sch.run_lru w ~cache_size:m order) in
    let bound = B.fft_memdep ~n ~m ~p:1 in
    Printf.printf "blocked schedule at M = %d: I/O = %d, bound = %.1f, ratio = %.2f\n"
      m (Tr.io res.Sch.counters) bound
      (float_of_int (Tr.io res.Sch.counters) /. bound)
  in
  Cmd.v
    (Cmd.info "fft" ~doc:"Simulate the FFT butterfly on the two-level machine")
    Term.(const run $ n_arg 256 $ m_arg 16)

(* --- parallel --- *)

let parallel_cmd =
  let run name n depth =
    let alg = find_algorithm name in
    let module PE = Fmm_machine.Par_exec in
    let cdag = Cd.build alg ~n in
    let r = PE.strassen_bfs_experiment cdag ~depth in
    let bound = B.fast_memind ~n ~p:r.PE.procs () in
    Printf.printf "P = %d processors (BFS partition at depth %d)\n" r.PE.procs depth;
    Printf.printf "total words moved:   %d\n" r.PE.total_words;
    Printf.printf "max words per proc:  %d\n" r.PE.max_words;
    Printf.printf "memind bound:        %.1f   (ratio %.2f)\n" bound
      (float_of_int r.PE.max_words /. bound)
  in
  let depth_arg =
    Arg.(value & opt int 1 & info [ "depth" ] ~doc:"BFS partition depth (P = 7^depth)")
  in
  Cmd.v
    (Cmd.info "parallel"
       ~doc:"Execute a BFS-partitioned CDAG on the distributed word-counting model")
    Term.(const run $ algorithm_arg $ n_arg 16 $ depth_arg)

(* --- search --- *)

let search_cmd =
  let run name seed =
    let alg = find_algorithm name in
    let module BS = Fmm_bilinear.Basis_search in
    let r = BS.search ~seed alg in
    Printf.printf "algorithm        %s\n" (A.name alg);
    Printf.printf "direct adds/step %d\n" (A.additions_per_step alg);
    Printf.printf "searched core    nnz %d/%d/%d, adds/step %d\n" r.BS.nnz_u
      r.BS.nnz_v r.BS.nnz_w r.BS.additions_per_step;
    Printf.printf "leading coeff    %.2f\n"
      (B.leading_coefficient_of_adds ~adds_per_step:r.BS.additions_per_step);
    Printf.printf "flatten = input  %b\n"
      (A.verify_brent (Fmm_bilinear.Alt_basis.flatten r.BS.alt));
    print_endline "\nsearched basis phi (x = phi . vec A):";
    Array.iter
      (fun row ->
        print_string "  [";
        Array.iteri (fun i c -> Printf.printf "%s%2d" (if i > 0 then "; " else "") c) row;
        print_endline " ]")
      (Fmm_bilinear.Alt_basis.phi r.BS.alt)
  in
  let seed_arg = Arg.(value & opt int 1 & info [ "seed" ] ~doc:"Search seed") in
  Cmd.v
    (Cmd.info "search"
       ~doc:"Search sparsifying alternative bases (the Karstadt-Schwartz optimization)")
    Term.(const run $ algorithm_arg $ seed_arg)

(* --- bench --- *)

let bench_cmd =
  let module Exp = Fmm_obs.Experiment in
  let module Sink = Fmm_obs.Sink in
  let module Json = Fmm_obs.Json in
  let run filter json_out baseline tolerance time_tolerance list quiet jobs =
    if list then
      List.iter
        (fun e -> Printf.printf "%-8s %s\n" (Exp.id e) (Exp.title e))
        (Fmm_experiments.Experiments.all ())
    else begin
      let jobs = max 1 jobs in
      let filter =
        match String.trim filter with
        | "" -> None
        | s ->
          Some
            (String.split_on_char ',' s |> List.map String.trim
            |> List.filter (fun x -> x <> ""))
      in
      (* a filter that selects nothing (typo, or only separators) is an
         error, not a vacuous success: exit 2 with the known ids *)
      let selected =
        match Fmm_experiments.Experiments.select filter with
        | Ok es -> es
        | Error msg ->
          Printf.eprintf
            "fmmlab bench: %s\n(run `fmmlab bench --list` for the experiment index)\n"
            msg;
          exit 2
      in
      Fmm_experiments.Experiments.set_jobs jobs;
      let outcomes =
        if jobs = 1 then
          (* sequential: stream each outcome as it finishes *)
          List.map
            (fun e ->
              let o = Exp.run e in
              if not quiet then Sink.print_outcome ~wall:true o;
              o)
            selected
        else begin
          let os = Exp.run_all ~jobs selected in
          if not quiet then List.iter (Sink.print_outcome ~wall:true) os;
          os
        end
      in
      (match json_out with
      | None -> ()
      | Some path ->
        Json.to_file path
          (Sink.report_to_json ~created:(Unix.gettimeofday ()) outcomes);
        Printf.printf "wrote %s (%d experiment(s), schema v%d)\n" path
          (List.length outcomes) Sink.schema_version);
      match baseline with
      | None -> ()
      | Some path ->
        let base =
          match
            try Ok (Json.of_file path) with
            | Sys_error msg -> Error msg
            | Json.Parse_error msg -> Error (path ^ ": " ^ msg)
          with
          | Error msg ->
            Printf.eprintf "fmmlab bench: cannot load baseline: %s\n" msg;
            exit 2
          | Ok j -> (
            match Sink.outcomes_of_json j with
            | Ok o -> o
            | Error msg ->
              Printf.eprintf "fmmlab bench: %s: %s\n" path msg;
              exit 2)
        in
        let d =
          Sink.diff ~tolerance ?time_tolerance ~baseline:base ~current:outcomes ()
        in
        Printf.printf
          "\nvs baseline %s: %d row(s) compared, %d regression(s), %d \
           improvement(s), %d unmatched\n"
          path d.Sink.n_compared d.Sink.n_regressions d.Sink.n_improvements
          d.Sink.n_unmatched;
        List.iter print_endline d.Sink.lines;
        if not (Sink.passes d) then exit 1
    end
  in
  let filter_arg =
    let doc =
      "Comma-separated experiment ids to run (e.g. T1,RC). Default: all."
    in
    Arg.(value & opt string "" & info [ "filter" ] ~doc ~docv:"IDS")
  in
  let json_arg =
    let doc = "Write the structured report (schema v1) to $(docv)." in
    Arg.(value & opt (some string) None & info [ "json" ] ~doc ~docv:"FILE")
  in
  let baseline_arg =
    let doc =
      "Compare this run against the report in $(docv); exit 1 if a bound \
       ratio regresses beyond the tolerance, an integer count differs, or \
       a row has no baseline row."
    in
    Arg.(value & opt (some string) None & info [ "baseline" ] ~doc ~docv:"FILE")
  in
  let tolerance_arg =
    let doc = "Relative ratio tolerance for --baseline (0.1 = 10%)." in
    Arg.(value & opt float 0.1 & info [ "tolerance" ] ~doc ~docv:"T")
  in
  let time_tolerance_arg =
    let doc =
      "Also gate per-experiment wall clocks within this relative tolerance \
       (off by default: timings are load-sensitive, ratios are not)."
    in
    Arg.(value & opt (some float) None & info [ "time-tolerance" ] ~doc ~docv:"T")
  in
  let list_arg =
    Arg.(value & flag & info [ "list" ] ~doc:"List experiment ids and exit")
  in
  let quiet_arg =
    Arg.(value & flag & info [ "quiet" ] ~doc:"Suppress the ASCII tables")
  in
  Cmd.v
    (Cmd.info "bench"
       ~doc:
         "Run the experiment registry: ASCII tables, JSON reports, baseline \
          regression gating")
    Term.(
      const run $ filter_arg $ json_arg $ baseline_arg $ tolerance_arg
      $ time_tolerance_arg $ list_arg $ quiet_arg $ jobs_arg)

(* --- optimize --- *)

let optimize_cmd =
  let module O = Fmm_opt.Optimizer in
  let module Json = Fmm_obs.Json in
  let run name n m beam iters seed json_out full_replay jobs =
    let alg = find_algorithm name in
    let cdag = Cd.build alg ~n in
    let jobs = max 1 jobs in
    let oracle_mode = if full_replay then O.Full_replay else O.Incremental in
    let r =
      schedule_or_exit ~cmd:"optimize" (fun () ->
          O.optimize_cdag cdag ~cache_size:m ~beam ~iters ~seed ~oracle_mode ~jobs)
    in
    let best = r.O.best in
    let c = best.O.result.Sch.counters in
    Printf.printf "workload    %s\nM           %d\n" r.O.workload m;
    Printf.printf "search      beam %d, %d iteration(s), seed %d\n" r.O.beam_width
      r.O.iterations r.O.seed;
    Printf.printf "evaluated   %d candidate(s), %d infeasible, %d oracle-checked\n"
      r.O.evaluated r.O.rejected r.O.accepted;
    Printf.printf "oracle      %s: re-interpreted %d of %d trace event(s)%s\n"
      (O.oracle_mode_name r.O.oracle_mode)
      r.O.oracle_replayed r.O.oracle_total
      (if r.O.oracle_total > 0 then
         Printf.sprintf " (%.1f%%)"
           (100. *. float_of_int r.O.oracle_replayed
           /. float_of_int r.O.oracle_total)
       else "");
    List.iter
      (fun (pname, io) ->
        Printf.printf "baseline    %-8s %s\n" pname
          (match io with Some io -> string_of_int io | None -> "infeasible"))
      r.O.baselines;
    Printf.printf "history     %s\n"
      (String.concat " -> " (List.map string_of_int r.O.history));
    Printf.printf "best        %s\n" best.O.candidate.O.provenance;
    Printf.printf "  policy    %s\n" (O.policy_name best.O.candidate.O.policy);
    Printf.printf "  I/O       %d (loads %d, stores %d)\n" best.O.io c.Tr.loads
      c.Tr.stores;
    Printf.printf "  computes  %d (recomputed %d)\n" c.Tr.computes c.Tr.recomputes;
    let bound = B.fast_sequential ~n ~m () in
    Printf.printf "  Thm 1.1   %.1f   (best/bound = %.3f)\n" bound
      (float_of_int best.O.io /. bound);
    match json_out with
    | None -> ()
    | Some path ->
      let j =
        Json.Obj
          [
            ("workload", Json.Str r.O.workload);
            ("algorithm", Json.Str (A.name alg));
            ("n", Json.Int n);
            ("cache_size", Json.Int r.O.cache_size);
            ("seed", Json.Int r.O.seed);
            ("beam", Json.Int r.O.beam_width);
            ("iters", Json.Int r.O.iterations);
            ("evaluated", Json.Int r.O.evaluated);
            ("rejected", Json.Int r.O.rejected);
            ("accepted", Json.Int r.O.accepted);
            ("oracle_mode", Json.Str (O.oracle_mode_name r.O.oracle_mode));
            ("oracle_replayed", Json.Int r.O.oracle_replayed);
            ("oracle_total", Json.Int r.O.oracle_total);
            ( "baselines",
              Json.Obj
                (List.map
                   (fun (pname, io) ->
                     ( pname,
                       match io with Some io -> Json.Int io | None -> Json.Null ))
                   r.O.baselines) );
            ("history", Json.List (List.map (fun x -> Json.Int x) r.O.history));
            ( "best",
              Json.Obj
                [
                  ("provenance", Json.Str best.O.candidate.O.provenance);
                  ("policy", Json.Str (O.policy_name best.O.candidate.O.policy));
                  ("io", Json.Int best.O.io);
                  ("loads", Json.Int c.Tr.loads);
                  ("stores", Json.Int c.Tr.stores);
                  ("computes", Json.Int c.Tr.computes);
                  ("recomputes", Json.Int c.Tr.recomputes);
                ] );
            ("bound", Json.Float bound);
            ("ratio", Json.Float (float_of_int best.O.io /. bound));
          ]
      in
      Json.to_file path j;
      Printf.printf "wrote %s\n" path
  in
  let beam_arg =
    Arg.(value & opt int 4 & info [ "beam" ] ~doc:"Beam width" ~docv:"B")
  in
  let iters_arg =
    Arg.(
      value & opt int 4 & info [ "iters" ] ~doc:"Search iterations" ~docv:"K")
  in
  let seed_arg =
    Arg.(value & opt int 1 & info [ "seed" ] ~doc:"Master PRNG seed" ~docv:"S")
  in
  let json_arg =
    let doc = "Write the optimizer report as JSON to $(docv)." in
    Arg.(value & opt (some string) None & info [ "json" ] ~doc ~docv:"FILE")
  in
  let full_replay_arg =
    Arg.(
      value & flag
      & info [ "full-replay" ]
          ~doc:
            "Run the legality oracle in full-replay mode (Cache_machine + \
             full Trace_check per admitted schedule) instead of the default \
             incremental check-delta mode. Search results are identical; \
             this is the slow differential reference.")
  in
  Cmd.v
    (Cmd.info "optimize"
       ~doc:
         "Beam-search schedules (order x spill-vs-recompute) against the \
          Theorem 1.1 bound")
    Term.(
      const run $ algorithm_arg $ n_arg 16 $ m_arg 64 $ beam_arg $ iters_arg
      $ seed_arg $ json_arg $ full_replay_arg $ jobs_arg)

(* --- faults --- *)

let faults_cmd =
  let module Sim = Fmm_fault.Sim in
  let module PE = Fmm_machine.Par_exec in
  let module Json = Fmm_obs.Json in
  let run name n depth procs policy_spec fail seed json_out jobs =
    let alg = find_algorithm name in
    let cdag = Cd.build alg ~n in
    let work = Fmm_machine.Workload.of_cdag cdag in
    let procs =
      if procs > 0 then procs
      else Fmm_util.Combinat.pow_int (A.rank alg) depth
    in
    let assignment = PE.bfs_assignment cdag ~depth ~procs in
    let policies =
      String.split_on_char ',' policy_spec
      |> List.filter (fun s -> String.trim s <> "")
      |> List.map (fun s ->
             match Sim.policy_of_string s with
             | Some p -> p
             | None ->
               Printf.eprintf
                 "unknown policy %S; known: recompute, refetch, replicate-k\n"
                 s;
               exit 2)
    in
    if policies = [] then begin
      prerr_endline "no recovery policy given";
      exit 2
    end;
    let bound = B.fast_memind ~n ~p:procs () in
    (* one simulation per policy on the domain pool; the simulator is
       pure in (workload, assignment, policy, fail, seed), so the
       report is byte-identical at any --jobs *)
    let reports =
      Fmm_par.Pool.map ~jobs:(max 1 jobs)
        (fun policy ->
          let r = Sim.simulate work ~procs ~assignment ~policy ~fail ~seed ~bound () in
          (r, Sim.check work r))
        policies
    in
    let baseline =
      match reports with
      | (r, _) :: _ -> r.Sim.baseline_total
      | [] -> 0
    in
    Printf.printf "workload    %s n=%d (BFS depth %d, P = %d)\n" (A.name alg) n
      depth procs;
    Printf.printf "failures    %d seeded crash(es), seed %d\n" fail seed;
    Printf.printf "fault-free  %d words total\n" baseline;
    let t =
      T.create ~title:"recovery policies"
        ~headers:
          [ "policy"; "total"; "max/proc"; "recovery"; "replication";
            "recomputed"; "overhead"; "vs Thm 1.1"; "replay" ]
        ~aligns:
          [ T.Left; T.Right; T.Right; T.Right; T.Right; T.Right; T.Right;
            T.Right; T.Left ] ()
    in
    let ok = ref true in
    List.iter
      (fun (r, replay) ->
        let errs =
          Fmm_analysis.Diagnostic.n_errors
            replay.Fmm_analysis.Par_check.report
          + replay.Fmm_analysis.Par_check.lost_outputs
        in
        if errs > 0 then ok := false;
        T.add_row t
          [
            Sim.policy_name r.Sim.policy;
            string_of_int r.Sim.total_words;
            string_of_int r.Sim.max_words;
            string_of_int r.Sim.recovery_words;
            string_of_int r.Sim.replication_words;
            string_of_int r.Sim.recomputed;
            Printf.sprintf "%.3f" r.Sim.overhead_total;
            (match r.Sim.bound_ratio with
            | Some x -> Printf.sprintf "%.2f" x
            | None -> "-");
            (if errs = 0 then "clean" else Printf.sprintf "%d ERRORS" errs);
          ])
      reports;
    T.print t;
    (match json_out with
    | None -> ()
    | Some path ->
      (* no wall clocks in this report: a fixed (algorithm, n, depth,
         procs, fail, seed) tuple must serialize byte-identically at
         any --jobs *)
      let j =
        Json.Obj
          [
            ("schema", Json.Str "fmm-faults/v1");
            ("algorithm", Json.Str (A.name alg));
            ("n", Json.Int n);
            ("depth", Json.Int depth);
            ("procs", Json.Int procs);
            ("fail", Json.Int fail);
            ("seed", Json.Int seed);
            ("baseline_total", Json.Int baseline);
            ("bound", Json.Float bound);
            ( "policies",
              Json.List
                (List.map
                   (fun (r, replay) ->
                     Json.Obj
                       [
                         ("policy", Json.Str (Sim.policy_name r.Sim.policy));
                         ( "failures",
                           Json.List
                             (List.map
                                (fun e ->
                                  Json.Obj
                                    [
                                      ("proc", Json.Int e.Sim.proc);
                                      ("step", Json.Int e.Sim.step);
                                    ])
                                r.Sim.failures) );
                         ("total_words", Json.Int r.Sim.total_words);
                         ("max_words", Json.Int r.Sim.max_words);
                         ("recovery_words", Json.Int r.Sim.recovery_words);
                         ( "replication_words",
                           Json.Int r.Sim.replication_words );
                         ("recomputed", Json.Int r.Sim.recomputed);
                         ("overhead_total", Json.Float r.Sim.overhead_total);
                         ("overhead_max", Json.Float r.Sim.overhead_max);
                         ( "bound_ratio",
                           match r.Sim.bound_ratio with
                           | Some x -> Json.Float x
                           | None -> Json.Null );
                         ( "replay_errors",
                           Json.Int
                             (Fmm_analysis.Diagnostic.n_errors
                                replay.Fmm_analysis.Par_check.report) );
                         ( "lost_outputs",
                           Json.Int replay.Fmm_analysis.Par_check.lost_outputs
                         );
                       ])
                   reports) );
          ]
      in
      Json.to_file path j;
      Printf.printf "wrote %s\n" path);
    if not !ok then exit 1
  in
  let depth_arg =
    Arg.(
      value & opt int 1
      & info [ "depth" ] ~doc:"BFS partition depth" ~docv:"D")
  in
  let policy_arg =
    let doc =
      "Comma-separated recovery policies: recompute, refetch, replicate-k."
    in
    Arg.(
      value
      & opt string "recompute,refetch,replicate-2"
      & info [ "policy" ] ~doc ~docv:"P,...")
  in
  let fail_arg =
    Arg.(
      value & opt int 1
      & info [ "fail" ] ~doc:"Number of seeded crashes" ~docv:"K")
  in
  let seed_arg =
    Arg.(
      value & opt int 1
      & info [ "seed" ] ~doc:"Failure-schedule PRNG seed" ~docv:"S")
  in
  let json_arg =
    let doc = "Write the fault report as JSON to $(docv)." in
    Arg.(value & opt (some string) None & info [ "json" ] ~doc ~docv:"FILE")
  in
  Cmd.v
    (Cmd.info "faults"
       ~doc:
         "Inject seeded processor crashes into the distributed run and price \
          the recovery policies")
    Term.(
      const run $ algorithm_arg $ n_arg 16 $ depth_arg $ p_arg 0 $ policy_arg
      $ fail_arg $ seed_arg $ json_arg $ jobs_arg)

(* --- cosma --- *)

let cosma_cmd =
  let module PE = Fmm_machine.Par_exec in
  let module G = Fmm_sched.Generator in
  let module Json = Fmm_obs.Json in
  let module Pc = Fmm_analysis.Par_check in
  let module Sim = Fmm_fault.Sim in
  let run name n procs order_name mem_spec rounds grid fail seed json_out jobs
      =
    let alg = find_algorithm name in
    if procs < 1 then begin
      prerr_endline "P must be >= 1";
      exit 2
    end;
    let cdag = Cd.build alg ~n in
    let work = Fmm_machine.Workload.of_cdag cdag in
    let order =
      match order_name with
      | "dfs" -> Fmm_machine.Orders.recursive_dfs cdag
      | "naive" -> Fmm_machine.Orders.naive_topo cdag
      | s ->
        Printf.eprintf "unknown order %S; known: dfs, naive\n" s;
        exit 2
    in
    let mems =
      String.split_on_char ',' mem_spec
      |> List.filter (fun s -> String.trim s <> "")
      |> List.map (fun s ->
             match int_of_string_opt (String.trim s) with
             | Some m when m > 0 -> m
             | _ ->
               Printf.eprintf "bad memory size %S\n" s;
               exit 2)
    in
    let split = G.split_order ~rounds work ~procs (Array.of_list order) in
    let depth =
      let t = A.rank alg in
      let rec go d subtrees =
        if subtrees >= procs then d else go (d + 1) (subtrees * t)
      in
      go 0 1
    in
    let bfs_asg = PE.bfs_assignment cdag ~depth ~procs in
    let bound = G.memind_bound cdag ~procs in
    let replay = G.validate work ~procs ~assignment:split.G.assignment in
    let replay_errs =
      Fmm_analysis.Diagnostic.n_errors replay.Pc.report + replay.Pc.lost_outputs
    in
    (* one executor run per (schedule, memory) cell on the domain pool;
       the executor is pure in its arguments, so the report is
       byte-identical at any --jobs *)
    let cells =
      List.concat_map
        (fun m -> [ (`Bfs, m); (`Gen, m) ])
        (max_int :: mems)
    in
    let rows =
      Fmm_par.Pool.map ~jobs:(max 1 jobs)
        (fun (tag, m) ->
          let assignment =
            match tag with `Bfs -> bfs_asg | `Gen -> split.G.assignment
          in
          let r =
            if m = max_int then PE.run work ~procs ~assignment
            else PE.run_limited work ~procs ~assignment ~local_memory:m
          in
          (tag, m, r))
        cells
    in
    Printf.printf "workload    %s n=%d, P = %d (BFS depth %d)\n" (A.name alg) n
      procs depth;
    Printf.printf "order       %s (%d vertices), %d boundary-search rounds\n"
      order_name (Array.length split.G.order) rounds;
    Printf.printf "Thm 4.1     n^2 / P^(2/omega0) = %.1f words/proc\n" bound;
    Printf.printf "replay      %s\n"
      (if replay_errs = 0 then "clean"
       else Printf.sprintf "%d ERRORS" replay_errs);
    let t =
      T.create ~title:"BFS deal vs generated contiguous split"
        ~headers:
          [ "schedule"; "M"; "total"; "max/proc"; "vs Thm 4.1" ]
        ~aligns:[ T.Left; T.Right; T.Right; T.Right; T.Right ] ()
    in
    let gate_ok = ref (replay_errs = 0) in
    let bfs_total = Hashtbl.create 8 in
    List.iter
      (fun (tag, m, (r : PE.result)) ->
        (match tag with
        | `Bfs -> Hashtbl.replace bfs_total m r.PE.total_words
        | `Gen ->
          (* the acceptance gate: at the same (P, M) the generated
             schedule never communicates more than the BFS deal *)
          if r.PE.total_words > Hashtbl.find bfs_total m then gate_ok := false);
        T.add_row t
          [
            (match tag with `Bfs -> "bfs" | `Gen -> "generated");
            (if m = max_int then "inf" else string_of_int m);
            string_of_int r.PE.total_words;
            string_of_int r.PE.max_words;
            Printf.sprintf "%.2f" (float_of_int r.PE.max_words /. bound);
          ])
      rows;
    T.print t;
    let fault =
      if fail <= 0 then None
      else begin
        let r =
          Sim.simulate work ~procs ~assignment:split.G.assignment
            ~policy:Sim.Refetch_owner ~fail ~seed ~bound ()
        in
        let rep = Sim.check work r in
        let errs =
          Fmm_analysis.Diagnostic.n_errors rep.Pc.report + rep.Pc.lost_outputs
        in
        if errs > 0 then gate_ok := false;
        Printf.printf
          "faults      refetch under %d crash(es): overhead %.3f, replay %s\n"
          fail r.Sim.overhead_total
          (if errs = 0 then "clean" else Printf.sprintf "%d ERRORS" errs);
        Some (r, errs)
      end
    in
    let grid_part =
      if not grid then None
      else begin
        (* the classical end of the hybrid family under the same P:
           exact-integer (p1, p2, p3) bricks, measured-argmin *)
        let classical = Cd.build alg ~n ~cutoff:n in
        let wc = Fmm_machine.Workload.of_cdag classical in
        let (p1, p2, p3), cost, r, asg = G.grid_search classical ~procs in
        let rep = G.validate wc ~procs ~assignment:asg in
        let errs =
          Fmm_analysis.Diagnostic.n_errors rep.Pc.report + rep.Pc.lost_outputs
        in
        if errs > 0 then gate_ok := false;
        Printf.printf
          "grid        best (p1,p2,p3) = (%d,%d,%d): %d words measured, %.0f \
           modeled/proc, replay %s\n"
          p1 p2 p3 r.PE.total_words
          cost.Fmm_machine.Par_model.words_per_proc
          (if errs = 0 then "clean" else Printf.sprintf "%d ERRORS" errs);
        Some ((p1, p2, p3), cost, r, errs)
      end
    in
    Printf.printf "gate        %s\n" (if !gate_ok then "ok" else "FAIL");
    (match json_out with
    | None -> ()
    | Some path ->
      (* no wall clocks: a fixed configuration serializes
         byte-identically at any --jobs *)
      let j =
        Json.Obj
          [
            ("schema", Json.Str "fmm-cosma/v1");
            ("algorithm", Json.Str (A.name alg));
            ("n", Json.Int n);
            ("procs", Json.Int procs);
            ("order", Json.Str order_name);
            ("rounds", Json.Int rounds);
            ("bfs_depth", Json.Int depth);
            ("bound", Json.Float bound);
            ("crossing", Json.Int split.G.crossing);
            ( "cuts",
              Json.List
                (Array.to_list (Array.map (fun c -> Json.Int c) split.G.cuts))
            );
            ("replay_errors", Json.Int replay_errs);
            ("gate_ok", Json.Bool !gate_ok);
            ( "rows",
              Json.List
                (List.map
                   (fun (tag, m, (r : PE.result)) ->
                     Json.Obj
                       [
                         ( "schedule",
                           Json.Str
                             (match tag with
                             | `Bfs -> "bfs"
                             | `Gen -> "generated") );
                         ( "memory",
                           if m = max_int then Json.Null else Json.Int m );
                         ("total_words", Json.Int r.PE.total_words);
                         ("max_words", Json.Int r.PE.max_words);
                         ( "bound_ratio",
                           Json.Float (float_of_int r.PE.max_words /. bound) );
                       ])
                   rows) );
            ( "fault",
              match fault with
              | None -> Json.Null
              | Some (r, errs) ->
                Json.Obj
                  [
                    ("policy", Json.Str (Sim.policy_name r.Sim.policy));
                    ("fail", Json.Int fail);
                    ("seed", Json.Int seed);
                    ("total_words", Json.Int r.Sim.total_words);
                    ("max_words", Json.Int r.Sim.max_words);
                    ("overhead_total", Json.Float r.Sim.overhead_total);
                    ("overhead_max", Json.Float r.Sim.overhead_max);
                    ("replay_errors", Json.Int errs);
                  ] );
            ( "grid",
              match grid_part with
              | None -> Json.Null
              | Some ((p1, p2, p3), cost, r, errs) ->
                Json.Obj
                  [
                    ( "grid",
                      Json.List [ Json.Int p1; Json.Int p2; Json.Int p3 ] );
                    ( "model_words_per_proc",
                      Json.Float cost.Fmm_machine.Par_model.words_per_proc );
                    ("total_words", Json.Int r.PE.total_words);
                    ("max_words", Json.Int r.PE.max_words);
                    ("replay_errors", Json.Int errs);
                  ] );
          ]
      in
      Json.to_file path j;
      Printf.printf "wrote %s\n" path);
    if not !gate_ok then exit 1
  in
  let order_arg =
    Arg.(
      value & opt string "dfs"
      & info [ "order" ] ~doc:"Sequential order to split: dfs or naive."
          ~docv:"ORD")
  in
  let memory_arg =
    Arg.(
      value
      & opt string "64,256,1024"
      & info [ "memory" ]
          ~doc:
            "Comma-separated local-memory sizes for the limited-memory sweep \
             (an unlimited row is always included)."
          ~docv:"M,...")
  in
  let rounds_arg =
    Arg.(
      value & opt int 4
      & info [ "rounds" ] ~doc:"Boundary local-search rounds" ~docv:"R")
  in
  let grid_arg =
    Arg.(
      value & flag
      & info [ "grid" ]
          ~doc:
            "Also search (p1,p2,p3) grids on the classical (cutoff = n) CDAG.")
  in
  let fail_arg =
    Arg.(
      value & opt int 0
      & info [ "fail" ]
          ~doc:
            "Crash the generated schedule this many times under the refetch \
             policy (0 = skip)."
          ~docv:"K")
  in
  let seed_arg =
    Arg.(
      value & opt int 1
      & info [ "seed" ] ~doc:"Failure-schedule PRNG seed" ~docv:"S")
  in
  let json_arg =
    let doc = "Write the report as JSON to $(docv)." in
    Arg.(value & opt (some string) None & info [ "json" ] ~doc ~docv:"FILE")
  in
  Cmd.v
    (Cmd.info "cosma"
       ~doc:
         "Generate a COSMA-style communication-minimizing schedule (contiguous \
          split of a sequential order) and race it against the BFS deal")
    Term.(
      const run $ algorithm_arg $ n_arg 16 $ p_arg 7 $ order_arg $ memory_arg
      $ rounds_arg $ grid_arg $ fail_arg $ seed_arg $ json_arg $ jobs_arg)

(* --- table1 --- *)

let table1_cmd =
  let run () =
    let t =
      T.create ~title:"Table I: known lower bounds (see paper)"
        ~headers:
          [ "algorithm"; "omega0"; "no-recomputation"; "with recomputation" ]
        ~aligns:[ T.Left; T.Right; T.Left; T.Left ] ()
    in
    List.iter
      (fun row ->
        T.add_row t
          [
            row.B.algorithm;
            Printf.sprintf "%.3f" row.B.omega0;
            row.B.no_recomp_citations;
            B.recomputation_status_string row.B.with_recomp;
          ])
      B.table1_rows;
    T.print t
  in
  Cmd.v (Cmd.info "table1" ~doc:"Print the Table I summary") Term.(const run $ const ())

let () =
  let info =
    Cmd.info "fmmlab" ~version:"1.0.0"
      ~doc:"I/O-complexity laboratory for fast matrix multiplication with recomputations"
  in
  (* GNU-style tolerance: accept --x for the single-char options, which
     cmdliner only registers in short form *)
  let argv =
    Array.map
      (function
        | ("--n" | "--m" | "--p" | "--a" | "--j") as s ->
          String.sub s 1 (String.length s - 1)
        | s -> s)
      Sys.argv
  in
  exit
    (Cmd.eval ~argv
       (Cmd.group info
          [ bounds_cmd; verify_cmd; simulate_cmd; analyze_cmd; pebble_cmd;
            cdag_cmd; census_cmd; exec_cmd; hybrid_cmd; fft_cmd; parallel_cmd;
            search_cmd; optimize_cmd; faults_cmd; cosma_cmd; bench_cmd;
            table1_cmd ]))
