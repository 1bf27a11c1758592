(* Differential suite for the implicit (recursion-indexed) CDAG core:
   every observable of [Fmm_cdag.Implicit] must agree bit-exactly with
   the explicit builder [Fmm_cdag.Cdag.build] wherever the explicit
   graph fits in memory — ids, roles, both adjacency directions with
   their insertion orders, coefficients, recursion nodes, sub-problem
   selections, censuses — and so must the two backings of the
   Workload view. The analyses written once against that view (LRU
   executor, segment analysis, MAXLIVE, BFS assignment, lint) must then
   agree event-for-event on either backing. *)

module Cd = Fmm_cdag.Cdag
module Im = Fmm_cdag.Implicit
module A = Fmm_bilinear.Algorithm
module S = Fmm_bilinear.Strassen
module D = Fmm_graph.Digraph
module P = Fmm_util.Prng
module W = Fmm_machine.Workload
module Sch = Fmm_machine.Schedulers
module SE = Fmm_machine.Stream_exec
module Seg = Fmm_machine.Segments
module Pe = Fmm_machine.Par_exec
module Df = Fmm_analysis.Dataflow
module Lint = Fmm_analysis.Cdag_lint
module Dg = Fmm_analysis.Diagnostic

let strassen = List.find (fun a -> A.name a = "Strassen") S.registry

let is_square alg =
  let n0, m0, k0 = A.dims alg in
  n0 = m0 && m0 = k0

(* Every square-base registry algorithm at every size whose explicit
   graph is small enough to build (includes the degenerate n = 1). *)
let square_cases =
  List.concat_map
    (fun alg ->
      if not (is_square alg) then []
      else begin
        let n0, _, _ = A.dims alg in
        let rec sizes n acc =
          if Im.n_vertices (Im.create alg ~n) <= 130_000 then
            sizes (n * n0) ((alg, n) :: acc)
          else acc
        in
        List.rev (sizes 1 [])
      end)
    S.registry

(* Hybrid (cutoff > 1) variants of the feasible cases: every cutoff
   that is a power of the base dimension in (1, n]. *)
let hybrid_cases =
  List.concat_map
    (fun (alg, n) ->
      if n <= 1 then []
      else begin
        let n0, _, _ = A.dims alg in
        let rec cuts c acc = if c > n then List.rev acc else cuts (c * n0) (c :: acc) in
        cuts n0 []
        |> List.filter_map (fun c ->
               if Im.n_vertices (Im.create ~cutoff:c alg ~n) <= 130_000 then
                 Some (alg, n, c)
               else None)
      end)
    square_cases

let check = Alcotest.check
let int_l = Alcotest.(list int)

let case_name ?(cutoff = 1) alg n =
  if cutoff = 1 then Printf.sprintf "%s n=%d" (A.name alg) n
  else Printf.sprintf "%s n=%d cutoff=%d" (A.name alg) n cutoff

(* --- full structural equality against the explicit builder --- *)

let check_structure ?cutoff alg n =
  let name = case_name ?cutoff alg n in
  let cd = Cd.build ?cutoff alg ~n in
  let imp = Im.create ?cutoff alg ~n in
  let nv = Cd.n_vertices cd in
  check Alcotest.int (name ^ " n_vertices") nv (Im.n_vertices imp);
  check Alcotest.int (name ^ " n_edges") (Cd.n_edges cd) (Im.n_edges imp);
  check
    Alcotest.(list (pair string int))
    (name ^ " stats") (Cd.stats cd) (Im.stats imp);
  check int_l (name ^ " a_inputs")
    (Array.to_list (Cd.a_inputs cd))
    (Array.to_list (Im.a_inputs imp));
  check int_l (name ^ " b_inputs")
    (Array.to_list (Cd.b_inputs cd))
    (Array.to_list (Im.b_inputs imp));
  check int_l (name ^ " outputs")
    (Array.to_list (Cd.outputs cd))
    (Array.to_list (Im.outputs imp));
  let g = Cd.graph cd in
  let dg = Im.to_digraph imp in
  check Alcotest.int (name ^ " digraph edges") (D.n_edges g) (D.n_edges dg);
  for v = 0 to nv - 1 do
    if Cd.role cd v <> Im.role imp v then
      Alcotest.failf "%s: role mismatch at %d" name v;
    (* both adjacency directions, including insertion order *)
    let ein = D.in_neighbors g v in
    if ein <> D.in_neighbors dg v then
      Alcotest.failf "%s: in_neighbors mismatch at %d" name v;
    if D.out_neighbors g v <> D.out_neighbors dg v then
      Alcotest.failf "%s: out_neighbors mismatch at %d" name v;
    (* iter_preds order is builder insertion order = reverse of the
       cons'd in_neighbors list *)
    let ip = Im.preds imp v in
    if List.rev (List.map fst ip) <> ein then
      Alcotest.failf "%s: preds order mismatch at %d" name v;
    List.iter
      (fun (p, c) ->
        if Cd.edge_coeff cd p v <> c then
          Alcotest.failf "%s: coeff mismatch on (%d, %d)" name p v;
        if Im.edge_coeff imp p v <> c then
          Alcotest.failf "%s: edge_coeff disagrees with preds at (%d, %d)" name
            p v)
      ip;
    (* succs is ascending-consumer = reverse of cons'd out_neighbors *)
    if Im.succs imp v <> List.rev (D.out_neighbors g v) then
      Alcotest.failf "%s: succs mismatch at %d" name v;
    if Im.in_degree imp v <> D.in_degree g v then
      Alcotest.failf "%s: in_degree mismatch at %d" name v;
    if Im.out_degree imp v <> D.out_degree g v then
      Alcotest.failf "%s: out_degree mismatch at %d" name v
  done

let test_structure () =
  List.iter (fun (alg, n) -> check_structure alg n) square_cases

(* --- to_explicit reconstructs the builder's Cdag.t exactly --- *)

let check_to_explicit ?cutoff alg n =
  let name = case_name ?cutoff alg n in
  let cd = Cd.build ?cutoff alg ~n in
  let cd2 = Im.to_explicit (Im.create ?cutoff alg ~n) in
  check Alcotest.int (name ^ " cutoff") (Cd.cutoff cd) (Cd.cutoff cd2);
  check
    Alcotest.(list (pair string int))
    (name ^ " stats") (Cd.stats cd) (Cd.stats cd2);
  if Cd.nodes cd <> Cd.nodes cd2 then
    Alcotest.failf "%s: reconstructed node list differs" name;
  check int_l (name ^ " outputs")
    (Array.to_list (Cd.outputs cd))
    (Array.to_list (Cd.outputs cd2));
  let g = Cd.graph cd and g2 = Cd.graph cd2 in
  for v = 0 to Cd.n_vertices cd - 1 do
    if Cd.role cd v <> Cd.role cd2 v then
      Alcotest.failf "%s: role mismatch at %d" name v;
    if D.in_neighbors g v <> D.in_neighbors g2 v then
      Alcotest.failf "%s: in_neighbors mismatch at %d" name v;
    if D.out_neighbors g v <> D.out_neighbors g2 v then
      Alcotest.failf "%s: out_neighbors mismatch at %d" name v;
    List.iter
      (fun p ->
        if Cd.edge_coeff cd p v <> Cd.edge_coeff cd2 p v then
          Alcotest.failf "%s: coeff mismatch on (%d, %d)" name p v)
      (D.in_neighbors g v)
  done

let test_to_explicit () =
  List.iter (fun (alg, n) -> check_to_explicit alg n) square_cases

(* --- recursion nodes and sub-problem selection (Lemma 2.2) --- *)

let check_nodes ?cutoff alg n =
  let name = case_name ?cutoff alg n in
  let cd = Cd.build ?cutoff alg ~n in
  let imp = Im.create ?cutoff alg ~n in
  let n0, _, _ = A.dims alg in
  let levels = Im.levels imp in
  for depth = 0 to levels do
    let enodes = Cd.nodes_at_depth cd ~depth in
    let inodes = ref [] in
    Im.iter_nodes_at_depth imp ~depth ~f:(fun nd -> inodes := nd :: !inodes);
    let inodes = List.rev !inodes in
    check Alcotest.int
      (Printf.sprintf "%s depth %d count" name depth)
      (List.length enodes)
      (Im.node_count_at_depth imp ~depth);
    List.iter2
      (fun (e : Cd.node) (i : Im.node_info) ->
        if
          e.Cd.r <> i.Im.r || e.Cd.depth <> i.Im.depth
          || e.Cd.subtree_lo <> i.Im.lo
          || e.Cd.subtree_hi <> i.Im.hi
        then Alcotest.failf "%s: node shape mismatch at depth %d" name depth;
        (* operand arrays are the contiguous blocks the implicit
           indexing promises *)
        Array.iteri
          (fun k id ->
            if id <> i.Im.a_base + k then
              Alcotest.failf "%s: a_in not contiguous at depth %d" name depth)
          e.Cd.a_in;
        Array.iteri
          (fun k id ->
            if id <> i.Im.b_base + k then
              Alcotest.failf "%s: b_in not contiguous at depth %d" name depth)
          e.Cd.b_in;
        Array.iteri
          (fun pos id ->
            if id <> Im.out_entry imp i pos then
              Alcotest.failf "%s: out entry mismatch at depth %d pos %d" name
                depth pos)
          e.Cd.out)
      enodes inodes
  done;
  (* Lemma 2.2 selections for every valid r *)
  let rec each_r r =
    if r <= n then begin
      (match Im.depth_of_r imp ~r with
      | None -> Alcotest.failf "%s: depth_of_r %d missing" name r
      | Some _ -> ());
      let e_out = List.sort compare (Cd.sub_outputs cd ~r) in
      let i_out = List.sort compare (Im.sub_outputs imp ~r) in
      check int_l (Printf.sprintf "%s V_out r=%d" name r) e_out i_out;
      check Alcotest.int
        (Printf.sprintf "%s |V_out| r=%d" name r)
        (List.length e_out)
        (Im.sub_output_count imp ~r);
      let e_in = List.sort compare (Cd.sub_inputs cd ~r) in
      let i_in = List.sort compare (Im.sub_inputs imp ~r) in
      check int_l (Printf.sprintf "%s V_inp r=%d" name r) e_in i_in;
      check Alcotest.int
        (Printf.sprintf "%s |V_inp| r=%d" name r)
        (List.length e_in)
        (Im.sub_input_count imp ~r);
      (* the streaming membership predicate *)
      let mask = Array.make (Cd.n_vertices cd) false in
      List.iter (fun v -> mask.(v) <- true) e_out;
      for v = 0 to Cd.n_vertices cd - 1 do
        if Im.is_sub_output imp ~r v <> mask.(v) then
          Alcotest.failf "%s: is_sub_output r=%d mismatch at %d" name r v
      done;
      each_r (r * n0)
    end
  in
  (* valid sub-problem sizes start at the hybrid leaf size *)
  if n > 1 then each_r (Cd.cutoff cd)

let test_nodes () = List.iter (fun (alg, n) -> check_nodes alg n) square_cases

(* --- hybrid (cutoff > 1) CDAGs: the classical base sub-CDAGs of PR 9
   must decode identically through the implicit offset tables --- *)

let test_hybrid_structure () =
  List.iter (fun (alg, n, c) -> check_structure ~cutoff:c alg n) hybrid_cases

let test_hybrid_to_explicit () =
  List.iter (fun (alg, n, c) -> check_to_explicit ~cutoff:c alg n) hybrid_cases

let test_hybrid_nodes () =
  List.iter (fun (alg, n, c) -> check_nodes ~cutoff:c alg n) hybrid_cases

let test_of_cdag_keeps_cutoff () =
  (* regression: of_cdag used to drop the hybrid cutoff, silently
     re-reading every hybrid CDAG as the uniform fast one *)
  List.iter
    (fun (alg, n, c) ->
      let cd = Cd.build ~cutoff:c alg ~n in
      let imp = Im.of_cdag cd in
      check Alcotest.int (case_name ~cutoff:c alg n ^ " of_cdag cutoff") c
        (Im.cutoff imp);
      check Alcotest.int
        (case_name ~cutoff:c alg n ^ " of_cdag vertices")
        (Cd.n_vertices cd) (Im.n_vertices imp))
    hybrid_cases

(* --- seeded random sub-problem / adjacency queries --- *)

let test_random_queries () =
  let rng = P.create ~seed:0xC0FFEE in
  List.iter
    (fun (alg, n) ->
      let name = case_name alg n in
      let cd = Cd.build alg ~n in
      let imp = Im.of_cdag cd in
      let g = Cd.graph cd in
      let nv = Cd.n_vertices cd in
      for _ = 1 to 64 do
        let v = P.int rng nv in
        if Cd.role cd v <> Im.role imp v then
          Alcotest.failf "%s: random role mismatch at %d" name v;
        if List.rev (List.map fst (Im.preds imp v)) <> D.in_neighbors g v then
          Alcotest.failf "%s: random preds mismatch at %d" name v;
        if Im.succs imp v <> List.rev (D.out_neighbors g v) then
          Alcotest.failf "%s: random succs mismatch at %d" name v;
        (* reciprocity *)
        List.iter
          (fun (p, _) ->
            if not (List.mem v (Im.succs imp p)) then
              Alcotest.failf "%s: pred %d of %d not reciprocated" name p v)
          (Im.preds imp v)
      done;
      (* random root-to-node paths *)
      let t_rank = A.rank alg in
      for _ = 1 to 16 do
        let depth = P.int rng (Im.levels imp + 1) in
        let path = Array.init depth (fun _ -> P.int rng t_rank) in
        let nd = Im.node_of_path imp path in
        (* lexicographic digit rank = position in the lo-sorted bucket *)
        let rank = Array.fold_left (fun acc d -> (acc * t_rank) + d) 0 path in
        let bucket = Cd.nodes_at_depth cd ~depth in
        let e = List.nth bucket rank in
        if e.Cd.subtree_lo <> nd.Im.lo || e.Cd.subtree_hi <> nd.Im.hi then
          Alcotest.failf "%s: node_of_path mismatch at depth %d" name depth
      done;
      (* random CSR windows *)
      for _ = 1 to 8 do
        let lo = P.int rng nv in
        let hi = min nv (lo + 1 + P.int rng 64) in
        let csr = Im.csr_preds imp ~lo ~hi in
        for v = lo to hi - 1 do
          let row =
            List.init
              (csr.Im.row_off.(v - lo + 1) - csr.Im.row_off.(v - lo))
              (fun k -> csr.Im.cols.(csr.Im.row_off.(v - lo) + k))
          in
          if row <> List.map fst (Im.preds imp v) then
            Alcotest.failf "%s: csr row mismatch at %d" name v
        done
      done)
    square_cases

(* --- rejections --- *)

let test_rejects () =
  List.iter
    (fun alg ->
      if not (is_square alg) then
        match Im.create alg ~n:4 with
        | exception Invalid_argument _ -> ()
        | _ -> Alcotest.failf "%s: non-square base accepted" (A.name alg))
    S.registry;
  (match Im.create strassen ~n:3 with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "n=3 accepted for a 2x2 base");
  (match Im.create strassen ~n:0 with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "n=0 accepted");
  (* the edge count of n = 2^21 overflows a 63-bit int: refused, never
     wrapped into a negative census *)
  match Im.create strassen ~n:(1 lsl 21) with
  | exception Invalid_argument _ -> ()
  | imp -> Alcotest.failf "n=2^21 accepted with %d edges" (Im.n_edges imp)

(* --- the two backings of the Workload view --- *)

let check_view_parity ?cutoff alg n =
  let name = case_name ?cutoff alg n in
  let cd = Cd.build ?cutoff alg ~n in
  let e = W.of_cdag cd and i = W.of_implicit (Im.create ?cutoff alg ~n) in
  let nv = W.n_vertices e in
  check Alcotest.int (name ^ " n_vertices") nv (W.n_vertices i);
  check Alcotest.string (name ^ " name") (W.name e) (W.name i);
  let seq iter w v =
    let acc = ref [] in
    iter w v ~f:(fun u -> acc := u :: !acc);
    List.rev !acc
  in
  for v = 0 to nv - 1 do
    let agree what f = if f e <> f i then Alcotest.failf "%s vertex %d: %s differ" name v what in
    agree "preds" (fun w -> seq W.iter_preds w v);
    agree "succs" (fun w -> seq W.iter_succs w v);
    agree "in_degree" (fun w -> W.in_degree w v);
    agree "out_degree" (fun w -> W.out_degree w v);
    agree "is_input" (fun w -> W.is_input w v);
    agree "is_output" (fun w -> W.is_output w v)
  done;
  (* the documented operand order is Digraph's *)
  for v = 0 to min 64 (nv - 1) do
    check int_l (name ^ " in_neighbors order")
      (D.in_neighbors (Cd.graph cd) v)
      (seq W.iter_preds i v)
  done;
  check int_l (name ^ " inputs") (Array.to_list (W.inputs e)) (Array.to_list (W.inputs i));
  check int_l (name ^ " outputs") (Array.to_list (W.outputs e)) (Array.to_list (W.outputs i))

let test_view_parity () =
  List.iter (fun (alg, n) -> check_view_parity alg n)
    (List.filter (fun (_, n) -> n <= 16) square_cases);
  List.iter (fun (alg, n, c) -> check_view_parity ~cutoff:c alg n) hybrid_cases

(* --- streaming LRU executor vs Schedulers.run_lru --- *)

let ascending_order imp =
  List.init
    (Im.n_vertices imp - Im.n_inputs imp)
    (fun i -> Im.n_inputs imp + i)

let max_in_degree cd =
  let g = Cd.graph cd in
  let m = ref 0 in
  for v = 0 to Cd.n_vertices cd - 1 do
    m := max !m (D.in_degree g v)
  done;
  !m

let test_stream_lru () =
  List.iter
    (fun ((alg, n), m) ->
      let name = Printf.sprintf "%s M=%d" (case_name alg n) m in
      let cd = Cd.build alg ~n in
      let imp = Im.of_cdag cd in
      let work = W.of_cdag cd in
      let er = Sch.run_lru work ~cache_size:m (ascending_order imp) in
      let ir = SE.run_lru_collect imp ~cache_size:m in
      if er.Sch.counters <> ir.Sch.counters then
        Alcotest.failf "%s: counters differ (%s vs %s)" name
          (Format.asprintf "%a" Fmm_machine.Trace.pp_counters er.Sch.counters)
          (Format.asprintf "%a" Fmm_machine.Trace.pp_counters ir.Sch.counters);
      if er.Sch.trace <> ir.Sch.trace then begin
        let rec first_diff i a b =
          match (a, b) with
          | x :: a', y :: b' ->
            if x = y then first_diff (i + 1) a' b'
            else
              Alcotest.failf "%s: traces diverge at event %d (%s vs %s)" name i
                (Fmm_machine.Trace.event_to_string x)
                (Fmm_machine.Trace.event_to_string y)
          | [], _ | _, [] ->
            Alcotest.failf "%s: traces have different lengths at %d" name i
        in
        first_diff 0
          (Fmm_machine.Trace.to_list er.Sch.trace)
          (Fmm_machine.Trace.to_list ir.Sch.trace)
      end)
    (List.concat_map
       (fun (alg, n) ->
         (* the scheduler needs room for all pinned operands plus the
            result; derive the floor from the real max in-degree *)
         let floor = max_in_degree (Cd.build alg ~n) + 1 in
         [ ((alg, n), floor); ((alg, n), floor + 24) ])
       (List.filter (fun (_, n) -> n > 1 && n <= 16) square_cases))

(* --- streaming MAXLIVE vs order_liveness --- *)

let test_maxlive () =
  List.iter
    (fun (alg, n) ->
      let name = case_name alg n in
      let cd = Cd.build alg ~n in
      let imp = Im.of_cdag cd in
      let work = W.of_cdag cd in
      let order = Array.of_list (ascending_order imp) in
      let lv = Df.order_liveness work order in
      let s = Df.implicit_order_liveness imp in
      check Alcotest.int (name ^ " maxlive") lv.Df.maxlive s.Df.Streamed.maxlive;
      check Alcotest.int (name ^ " inputs_used") lv.Df.inputs_used
        s.Df.Streamed.inputs_used;
      check Alcotest.int (name ^ " outputs_stored") lv.Df.outputs_stored
        s.Df.Streamed.outputs_stored;
      check Alcotest.int (name ^ " length") (Array.length order)
        s.Df.Streamed.length;
      List.iter
        (fun m ->
          check Alcotest.int
            (Printf.sprintf "%s io bound M=%d" name m)
            (Df.io_lower_bound lv ~cache_size:m)
            (Df.streamed_io_lower_bound s ~cache_size:m))
        [ 4; 16; 64 ])
    (List.filter (fun (_, n) -> n <= 16) square_cases)

(* --- streaming segment analysis vs Segments.analyze --- *)

let test_segments () =
  List.iter
    (fun ((alg, n), m, r) ->
      let name = Printf.sprintf "%s M=%d r=%d" (case_name alg n) m r in
      let cd = Cd.build alg ~n in
      let imp = Im.of_cdag cd in
      let work = W.of_cdag cd in
      let er = Sch.run_lru work ~cache_size:m (ascending_order imp) in
      let ea = Seg.analyze cd ~cache_size:m ~r er.Sch.trace in
      let ia, ic = Seg.analyze_implicit imp ~cache_size:m ~r () in
      if ea <> ia then Alcotest.failf "%s: segment analyses differ" name;
      if er.Sch.counters <> ic then
        Alcotest.failf "%s: segment counters differ" name;
      (* explicit quota too *)
      let ea' = Seg.analyze cd ~cache_size:m ~r ~quota:16 er.Sch.trace in
      let ia', _ = Seg.analyze_implicit imp ~cache_size:m ~r ~quota:16 () in
      if ea' <> ia' then Alcotest.failf "%s: quota-16 analyses differ" name)
    [
      ((strassen, 8), 8, 2);
      ((strassen, 8), 8, 4);
      ((strassen, 16), 16, 4);
      ((List.find (fun a -> A.name a = "Winograd") S.registry, 8), 8, 2);
    ]

(* --- BFS assignment parity --- *)

let test_bfs_assignment () =
  List.iter
    (fun ((alg, n), depth, procs) ->
      let name = Printf.sprintf "%s depth=%d procs=%d" (case_name alg n) depth procs in
      let cd = Cd.build alg ~n in
      let imp = Im.of_cdag cd in
      let e = Pe.bfs_assignment cd ~depth ~procs in
      let i = Pe.bfs_assignment_implicit imp ~depth ~procs in
      check int_l name (Array.to_list e) (Array.to_list i))
    [
      ((strassen, 8), 0, 3);
      ((strassen, 8), 1, 3);
      ((strassen, 8), 2, 7);
      ((strassen, 16), 1, 7);
      ((strassen, 16), 2, 3);
    ]

let test_bfs_assignment_hybrid () =
  (* entry-for-entry agreement on hybrid CDAGs over registry x cutoffs,
     at every recursion depth the hybrid tree still has and one beyond
     it, where both entry points claim nothing (round-robin default) *)
  List.iter
    (fun (alg, n, c) ->
      let cd = Cd.build ~cutoff:c alg ~n in
      let imp = Im.of_cdag cd in
      for depth = 0 to Im.levels imp + 1 do
        List.iter
          (fun procs ->
            let name =
              Printf.sprintf "%s depth=%d procs=%d"
                (case_name ~cutoff:c alg n)
                depth procs
            in
            let e = Pe.bfs_assignment cd ~depth ~procs in
            let i = Pe.bfs_assignment_implicit imp ~depth ~procs in
            check int_l name (Array.to_list e) (Array.to_list i);
            if depth > Im.levels imp then
              check int_l (name ^ " round-robin")
                (List.init (Cd.n_vertices cd) (fun v -> v mod procs))
                (Array.to_list e))
          [ 3; 7 ]
      done)
    hybrid_cases

(* --- implicit lint is clean on well-formed CDAGs --- *)

let test_lint_implicit () =
  List.iter
    (fun (alg, n) ->
      let report = Lint.lint_implicit ~samples:512 (Im.create alg ~n) in
      if not (Dg.is_clean report) then
        Alcotest.failf "%s: implicit lint found problems:\n%s" (case_name alg n)
          (Dg.render report))
    (List.filter (fun (_, n) -> n > 1 && n <= 64) square_cases
    @ [ (strassen, 64) ])

(* hybrid CDAGs lint clean on both paths: the sampled implicit lint
   uses the same cutoff-widened decoder bound as the full sweep *)
let test_lint_implicit_hybrid () =
  List.iter
    (fun (alg, n, c) ->
      let name = case_name ~cutoff:c alg n in
      let explicit = Lint.lint (Cd.build ~cutoff:c alg ~n) in
      let implicit = Lint.lint_implicit ~samples:512 (Im.create ~cutoff:c alg ~n) in
      check Alcotest.int (name ^ " explicit lint errors") 0 (Dg.n_errors explicit);
      if not (Dg.is_clean implicit) then
        Alcotest.failf "%s: implicit lint found problems:\n%s" name (Dg.render implicit))
    hybrid_cases

(* --- closed-form censuses at a scale the explicit builder cannot reach --- *)

let test_large_census () =
  let imp = Im.create strassen ~n:256 in
  (* V(n) = 2 n^2 + S with S(d) from the chunk recurrence; the known
     values pin the arithmetic at depth 8 *)
  check Alcotest.int "n=256 inputs" (2 * 256 * 256) (Im.n_inputs imp);
  check Alcotest.int "n=256 mult census" (Fmm_util.Combinat.pow_int 7 8)
    (List.assoc "mult" (Im.stats imp));
  check Alcotest.int "n=256 outputs" (256 * 256)
    (List.assoc "outputs" (Im.stats imp));
  check Alcotest.int "n=256 |V_out(root)|" (256 * 256)
    (Im.sub_output_count imp ~r:256);
  (* Lemma 2.2 at r = 128: (n/r)^{log2 7} r^2 = 7 * 128^2 *)
  check Alcotest.int "n=256 |V_out| r=128" (7 * 128 * 128)
    (Im.sub_output_count imp ~r:128);
  (* ascending-id topological property on a sampled window *)
  let nv = Im.n_vertices imp in
  let stride = nv / 1024 in
  let v = ref (Im.n_inputs imp) in
  while !v < nv do
    Im.iter_preds imp !v ~f:(fun p _ ->
        if p >= !v then Alcotest.failf "edge not ascending at %d" !v);
    v := !v + stride
  done

(* --- allocation: queries and the streamed sweep produce no garbage ---

   Allocation counts are deterministic, so these bounds are exact. *)

let minor_words_of f =
  let w0 = Gc.minor_words () in
  f ();
  Gc.minor_words () -. w0

let ignore_pred _ _ = ()
let ignore_vertex _ = ()

let check_alloc_free_queries ?(cutoff = 1) alg n =
  let name = case_name ~cutoff alg n in
  let imp = Im.create ~cutoff alg ~n in
  let ni = Im.n_inputs imp and nv = Im.n_vertices imp in
  (* 10 000 non-input ids spread over the whole id range (an input's
     role carries its index, so it is left out) *)
  let calls = 10_000 in
  let id k = ni + (k * 7919 mod (nv - ni)) in
  let probe =
    minor_words_of (fun () ->
        for k = 1 to calls do
          ignore (Sys.opaque_identity (id k))
        done)
  in
  let guard what query =
    let words =
      minor_words_of (fun () ->
          for k = 1 to calls do
            query (id k)
          done)
    in
    if words -. probe <> 0. then
      Alcotest.failf "%s: %d calls of %s allocate %.0f words" name calls what
        (words -. probe)
  in
  guard "iter_in_neighbors" (fun v -> Im.iter_in_neighbors imp v ~f:ignore_vertex);
  guard "iter_out_neighbors" (fun v -> Im.iter_out_neighbors imp v ~f:ignore_vertex);
  guard "iter_preds" (fun v -> Im.iter_preds imp v ~f:ignore_pred);
  guard "is_sub_output" (fun v -> ignore (Sys.opaque_identity (Im.is_sub_output imp ~r:cutoff v)));
  guard "role" (fun v -> ignore (Sys.opaque_identity (Im.role imp v)))

let test_alloc_free_queries () =
  List.iter (fun (alg, n) -> check_alloc_free_queries alg n) square_cases;
  List.iter (fun (alg, n, c) -> check_alloc_free_queries ~cutoff:c alg n) hybrid_cases

(* the liveness sweep allocates its O(maxlive) table and its summary,
   never anything per vertex *)
let test_sweep_alloc () =
  let imp = Im.create strassen ~n:32 in
  let words_per_byte = 1. /. float_of_int (Sys.word_size / 8) in
  let b0 = Gc.allocated_bytes () in
  let s = Df.implicit_order_liveness imp in
  let words = (Gc.allocated_bytes () -. b0) *. words_per_byte in
  check Alcotest.int "sweep length" (Im.n_vertices imp - Im.n_inputs imp) s.Df.Streamed.length;
  if words >= float_of_int (Im.n_vertices imp) then
    Alcotest.failf "implicit_order_liveness allocates %.0f words for %d vertices" words
      (Im.n_vertices imp)

(* the streamed LRU run allocates its slot table, index and bitsets
   once; no event allocates *)
let test_stream_alloc () =
  let imp = Im.create strassen ~n:32 in
  let counters = ref None in
  let words =
    minor_words_of (fun () -> counters := Some (SE.run_lru imp ~cache_size:256 ()))
  in
  check Alcotest.bool "run finished" true (Option.is_some !counters);
  if words >= 1000. then
    Alcotest.failf "Stream_exec.run_lru at n = 32, M = 256 allocates %.0f minor words" words

(* --- one view, two domains ---

   [Implicit.t] is immutable and its queries keep no hidden state, so
   the streamed LRU run and the liveness sweep can share one value from
   two domains and still match their sequential results. *)
let test_shared_view () =
  let imp = Im.create strassen ~n:32 in
  let cache_size = 256 in
  let lru () = SE.run_lru imp ~cache_size () in
  let live () = Df.implicit_order_liveness imp in
  let seq_lru = lru () and seq_live = live () in
  let d = Domain.spawn lru in
  let par_live = live () in
  let par_lru = Domain.join d in
  if par_lru <> seq_lru then
    Alcotest.failf "shared-view LRU counters differ (%s vs %s)"
      (Format.asprintf "%a" Fmm_machine.Trace.pp_counters par_lru)
      (Format.asprintf "%a" Fmm_machine.Trace.pp_counters seq_lru);
  check Alcotest.int "shared-view MAXLIVE" seq_live.Df.Streamed.maxlive
    par_live.Df.Streamed.maxlive;
  if par_live <> seq_live then Alcotest.fail "shared-view liveness summary differs"

let () =
  Alcotest.run "fmm_implicit"
    [
      ( "differential",
        [
          Alcotest.test_case "structure" `Quick test_structure;
          Alcotest.test_case "to_explicit" `Quick test_to_explicit;
          Alcotest.test_case "nodes + Lemma 2.2" `Quick test_nodes;
          Alcotest.test_case "random queries" `Quick test_random_queries;
          Alcotest.test_case "rejections" `Quick test_rejects;
        ] );
      ( "hybrid",
        [
          Alcotest.test_case "structure" `Quick test_hybrid_structure;
          Alcotest.test_case "to_explicit" `Quick test_hybrid_to_explicit;
          Alcotest.test_case "nodes + Lemma 2.2" `Quick test_hybrid_nodes;
          Alcotest.test_case "of_cdag keeps cutoff" `Quick
            test_of_cdag_keeps_cutoff;
          Alcotest.test_case "BFS assignment parity" `Quick
            test_bfs_assignment_hybrid;
          Alcotest.test_case "implicit lint" `Quick test_lint_implicit_hybrid;
        ] );
      ( "streaming",
        [
          Alcotest.test_case "Workload view parity" `Quick test_view_parity;
          Alcotest.test_case "LRU trace parity" `Quick test_stream_lru;
          Alcotest.test_case "MAXLIVE parity" `Quick test_maxlive;
          Alcotest.test_case "segment parity" `Quick test_segments;
          Alcotest.test_case "BFS assignment parity" `Quick test_bfs_assignment;
          Alcotest.test_case "implicit lint" `Quick test_lint_implicit;
        ] );
      ( "scale",
        [ Alcotest.test_case "n=256 censuses" `Quick test_large_census ] );
      ( "allocation",
        [
          Alcotest.test_case "allocation-free queries" `Quick test_alloc_free_queries;
          Alcotest.test_case "liveness sweep" `Quick test_sweep_alloc;
          Alcotest.test_case "streamed LRU" `Quick test_stream_alloc;
        ] );
      ( "domains",
        [ Alcotest.test_case "shared view" `Quick test_shared_view ] );
    ]
