(* Tests for the dataflow/abstract-interpretation framework and the
   certifier analyses built on it:

   - Bitset / Fixpoint substrate sanity (vs naive reference sweeps);
   - order_liveness MAXLIVE exactness on hand-built DAGs with known
     register requirements (chains, Ershov/Sethi-Ullman reduction
     trees) and vs an independent O(n^2) reference on random DAGs;
   - static/dynamic agreement: trace_profile.min_cache equals
     Trace_check's dynamic peak_occupancy on every scheduler trace,
     and Belady at M = MAXLIVE achieves exactly the static I/O lower
     bound (the sandwich closes);
   - the incremental oracle: check_cached reproduces check field for
     field, and check_delta agrees with a from-scratch check_cached on
     seeded mutants (drop a load, drop an evict, swap a window,
     duplicate an event, shrink the cache) — and both agree with the
     dynamic Cache_machine on the legality verdict;
   - the fmm-analyze/v1 JSON schema: byte-identical round-trips and
     strict-parse rejections. *)

module D = Fmm_graph.Digraph
module Cd = Fmm_cdag.Cdag
module S = Fmm_bilinear.Strassen
module W = Fmm_machine.Workload
module Tr = Fmm_machine.Trace
module Ord = Fmm_machine.Orders
module Sch = Fmm_machine.Schedulers
module CM = Fmm_machine.Cache_machine
module Dg = Fmm_analysis.Diagnostic
module Df = Fmm_analysis.Dataflow
module Tc = Fmm_analysis.Trace_check
module Ct = Fmm_analysis.Certify
module Aj = Fmm_analysis.Analyze_json
module Pd = Fmm_pebble.Pebble_dags
module Prng = Fmm_util.Prng
module J = Fmm_obs.Json

let cdag4 = Cd.build S.strassen ~n:4
let cdag8 = Cd.build S.strassen ~n:8
let w4 = W.of_cdag cdag4
let w8 = W.of_cdag cdag8
let dfs4 = Ord.recursive_dfs cdag4
let dfs8 = Ord.recursive_dfs cdag8

let non_input_topo w =
  match D.topo_sort (W.graph w) with
  | Some o -> List.filter (fun v -> not (W.is_input w v)) o
  | None -> Alcotest.fail "cyclic workload"

(* --- Bitset --- *)

let test_bitset () =
  let b = Df.Bitset.create 100 in
  Alcotest.(check int) "capacity" 100 (Df.Bitset.capacity b);
  Alcotest.(check int) "empty" 0 (Df.Bitset.cardinal b);
  List.iter (Df.Bitset.add b) [ 0; 31; 32; 33; 63; 64; 99 ];
  Alcotest.(check int) "cardinal" 7 (Df.Bitset.cardinal b);
  Alcotest.(check bool) "mem 32" true (Df.Bitset.mem b 32);
  Alcotest.(check bool) "not mem 1" false (Df.Bitset.mem b 1);
  Df.Bitset.add b 32;
  Alcotest.(check int) "add idempotent" 7 (Df.Bitset.cardinal b);
  Df.Bitset.remove b 32;
  Alcotest.(check bool) "removed" false (Df.Bitset.mem b 32);
  Df.Bitset.remove b 32;
  Alcotest.(check int) "remove idempotent" 6 (Df.Bitset.cardinal b);
  Alcotest.(check (list int)) "ascending to_list" [ 0; 31; 33; 63; 64; 99 ]
    (Df.Bitset.to_list b);
  let c = Df.Bitset.copy b in
  Alcotest.(check bool) "copy equal" true (Df.Bitset.equal b c);
  Df.Bitset.add c 50;
  Alcotest.(check bool) "copy independent" false (Df.Bitset.equal b c);
  Df.Bitset.blit ~src:b ~dst:c;
  Alcotest.(check bool) "blit restores" true (Df.Bitset.equal b c)

(* --- Fixpoint: reachability vs a naive DFS reference --- *)

let naive_reachable g seeds =
  let n = D.n_vertices g in
  let seen = Array.make n false in
  let rec go v =
    if not seen.(v) then begin
      seen.(v) <- true;
      List.iter go (D.out_neighbors g v)
    end
  in
  List.iter go seeds;
  seen

let naive_coreachable g seeds =
  let n = D.n_vertices g in
  let seen = Array.make n false in
  let rec go v =
    if not seen.(v) then begin
      seen.(v) <- true;
      List.iter go (D.in_neighbors g v)
    end
  in
  List.iter go seeds;
  seen

let test_fixpoint_reachability () =
  let rg, rins, routs = Pd.random_dag ~seed:7 ~layers:5 ~width:6 ~density:0.4 in
  List.iter
    (fun (name, g, ins, outs) ->
      let r = Df.reachable g ins and nd = Df.needed g outs in
      let nr = naive_reachable g ins and nc = naive_coreachable g outs in
      for v = 0 to D.n_vertices g - 1 do
        Alcotest.(check bool)
          (Printf.sprintf "%s reachable %d" name v)
          nr.(v) (Df.Bitset.mem r v);
        Alcotest.(check bool)
          (Printf.sprintf "%s needed %d" name v)
          nc.(v) (Df.Bitset.mem nd v)
      done)
    [
      ( "strassen4",
        Cd.graph cdag4,
        Array.to_list (Cd.inputs cdag4),
        Array.to_list (Cd.outputs cdag4) );
      ("random", rg, rins, routs);
      (* partial seed sets exercise the non-source case *)
      ("random partial", rg, [ List.hd rins ], [ List.hd routs ]);
    ]

(* A longest-path instance of the generic solver: forward, fact = max
   distance from any source. Checks the solver against the obvious
   topological-order recurrence. *)
let test_fixpoint_longest_path () =
  let g = Cd.graph cdag4 in
  let module LP = Df.Fixpoint (struct
    type fact = int

    let equal = Int.equal
    let join = max
  end) in
  let dist =
    LP.solve g ~direction:`Forward
      ~init:(fun _ -> 0)
      ~transfer:(fun v acc -> if D.in_neighbors g v = [] then 0 else acc + 1)
  in
  let expect = Array.make (D.n_vertices g) 0 in
  (match D.topo_sort g with
  | None -> Alcotest.fail "cycle"
  | Some o ->
    List.iter
      (fun v ->
        List.iter
          (fun u -> if expect.(u) + 1 > expect.(v) then expect.(v) <- expect.(u) + 1)
          (D.in_neighbors g v))
      o);
  Array.iteri
    (fun v e ->
      Alcotest.(check int) (Printf.sprintf "longest path to %d" v) e dist.(v))
    expect

(* --- MAXLIVE exactness on hand-built DAGs --- *)

(* chain: in -> v1 -> ... -> vk. Two values live at every step. *)
let test_maxlive_chain () =
  let k = 9 in
  let g = D.create () in
  let ids = D.add_vertices g (k + 1) in
  for i = 0 to k - 1 do
    D.add_edge g ids.(i) ids.(i + 1)
  done;
  let w =
    W.make ~graph:g ~inputs:[| ids.(0) |] ~outputs:[| ids.(k) |] ()
  in
  let order = Array.init k (fun i -> ids.(i + 1)) in
  let lv = Df.order_liveness w order in
  Alcotest.(check int) "chain maxlive" 2 lv.Df.maxlive;
  Alcotest.(check int) "chain inputs" 1 lv.Df.inputs_used;
  Alcotest.(check int) "chain outputs" 1 lv.Df.outputs_stored;
  Alcotest.(check int) "chain spill-free lb" 2
    (Df.io_lower_bound lv ~cache_size:2);
  Alcotest.(check int) "chain lb below maxlive" 3
    (Df.io_lower_bound lv ~cache_size:1)

(* Complete binary reduction tree with [h] internal levels, postorder:
   the classic Sethi-Ullman requirement is h+1 registers when results
   may overwrite operands; in our model operands and the result are
   simultaneously resident, so MAXLIVE = h + 2 exactly. *)
let reduction_tree h =
  let leaves = 1 lsl h in
  let g = D.create () in
  let ids = D.add_vertices g (2 * leaves - 1) in
  (* heap layout: node i has children 2i+1, 2i+2; leaves at the end *)
  let internal = leaves - 1 in
  for i = 0 to internal - 1 do
    D.add_edge g ids.(2 * i + 1) ids.(i);
    D.add_edge g ids.(2 * i + 2) ids.(i)
  done;
  let inputs = Array.init leaves (fun i -> ids.(internal + i)) in
  let w = W.make ~graph:g ~inputs ~outputs:[| ids.(0) |] () in
  (* postorder over internal nodes *)
  let order = ref [] in
  let rec post i =
    if i < internal then begin
      post (2 * i + 1);
      post (2 * i + 2);
      order := ids.(i) :: !order
    end
  in
  post 0;
  (w, Array.of_list (List.rev !order))

let test_maxlive_tree () =
  List.iter
    (fun h ->
      let w, order = reduction_tree h in
      let lv = Df.order_liveness w order in
      Alcotest.(check int)
        (Printf.sprintf "tree h=%d maxlive" h)
        (h + 2) lv.Df.maxlive)
    [ 1; 2; 3; 4 ]

(* Independent O(n^2) interval-liveness reference. *)
let naive_maxlive w order =
  let n = W.n_vertices w in
  let len = Array.length order in
  let pos = Array.make n (-1) in
  Array.iteri (fun i v -> pos.(v) <- i) order;
  let first_use = Array.make n max_int and last_use = Array.make n (-1) in
  for v = 0 to n - 1 do
    List.iter
      (fun c ->
        if pos.(c) >= 0 then begin
          if pos.(c) < first_use.(v) then first_use.(v) <- pos.(c);
          if pos.(c) > last_use.(v) then last_use.(v) <- pos.(c)
        end)
      (D.out_neighbors (W.graph w) v)
  done;
  let best = ref 0 in
  for i = 0 to len - 1 do
    let live = ref 0 in
    for v = 0 to n - 1 do
      let s =
        if W.is_input w v then first_use.(v)
        else if pos.(v) >= 0 then pos.(v)
        else max_int
      and e = max last_use.(v) (if W.is_input w v then -1 else pos.(v)) in
      if s <> max_int && s <= i && i <= e then incr live
    done;
    if !live > !best then best := !live
  done;
  !best

let random_workload seed =
  let g, ins, outs = Pd.random_dag ~seed ~layers:6 ~width:5 ~density:0.5 in
  (* random_dag outputs are its sinks; everything else mirrors a CDAG *)
  W.make ~graph:g ~inputs:(Array.of_list ins) ~outputs:(Array.of_list outs) ()

let test_maxlive_random_dags () =
  List.iter
    (fun seed ->
      let w = random_workload seed in
      let order = Array.of_list (non_input_topo w) in
      let lv = Df.order_liveness w order in
      Alcotest.(check int)
        (Printf.sprintf "seed %d maxlive = naive" seed)
        (naive_maxlive w order) lv.Df.maxlive)
    [ 1; 2; 3; 4; 5; 6; 7; 8 ]

let test_order_liveness_validates () =
  let rejects name order =
    Alcotest.(check bool) name true
      (try
         ignore (Df.order_liveness w4 order);
         false
       with Invalid_argument _ -> true)
  in
  let dup = Array.of_list dfs4 in
  dup.(0) <- dup.(1);
  rejects "duplicate rejected" dup;
  let oob = Array.of_list dfs4 in
  oob.(0) <- W.n_vertices w4;
  rejects "out-of-range rejected" oob

(* --- static min-cache = dynamic peak on every scheduler trace --- *)

let scheduler_runs =
  [
    ("lru n=4 M=24", w4, 24, fun () -> Sch.run_lru w4 ~cache_size:24 dfs4);
    ("lru n=8 M=64", w8, 64, fun () -> Sch.run_lru w8 ~cache_size:64 dfs8);
    ("belady n=8 M=32", w8, 32, fun () -> Sch.run_belady w8 ~cache_size:32 dfs8);
    ( "remat n=4 M=24",
      w4,
      24,
      fun () -> Sch.run_rematerialize w4 ~cache_size:24 dfs4 );
    ( "remat n=8 M=80",
      w8,
      80,
      fun () -> Sch.run_rematerialize w8 ~cache_size:80 dfs8 );
  ]

let test_profile_matches_dynamic_peak () =
  List.iter
    (fun (name, w, m, run) ->
      let trace = (run ()).Sch.trace in
      let prof = Df.trace_profile w trace in
      let chk = Tc.check ~cache_size:m w trace in
      Alcotest.(check int)
        (name ^ " min_cache = dynamic peak")
        chk.Tc.peak_occupancy prof.Df.min_cache;
      Alcotest.(check int)
        (name ^ " peak = min_cache")
        prof.Df.peak_occupancy prof.Df.min_cache;
      Alcotest.(check bool) (name ^ " peak within M") true
        (prof.Df.peak_occupancy <= m);
      (* the trace replays at exactly min_cache and not below *)
      ignore
        (CM.replay
           { CM.cache_size = prof.Df.min_cache; allow_recompute = true }
           w trace);
      Alcotest.(check bool) (name ^ " illegal below min_cache") true
        (try
           ignore
             (CM.replay
                { CM.cache_size = prof.Df.min_cache - 1; allow_recompute = true }
                w trace);
           false
         with CM.Illegal _ -> true))
    scheduler_runs

(* Belady at M = MAXLIVE is spill-free: measured I/O equals the static
   lower bound exactly — the sandwich lb <= belady <= lru closes. *)
let test_spill_free_at_maxlive () =
  List.iter
    (fun (name, w, order) ->
      let lv = Df.order_liveness w (Array.of_list order) in
      let m = lv.Df.maxlive in
      let res = Sch.run_belady w ~cache_size:m order in
      let io = Tr.io res.Sch.counters in
      let lb = Df.io_lower_bound lv ~cache_size:m in
      Alcotest.(check int)
        (name ^ " spill-free lb = inputs + outputs")
        (lv.Df.inputs_used + lv.Df.outputs_stored)
        lb;
      Alcotest.(check int) (name ^ " belady meets the bound") lb io;
      (* and below MAXLIVE the bound still holds for belady and lru *)
      let m' = max 3 (m / 2) in
      let lb' = Df.io_lower_bound lv ~cache_size:m' in
      List.iter
        (fun (pname, run) ->
          match run () with
          | (res' : Sch.result) ->
            Alcotest.(check bool)
              (Printf.sprintf "%s %s at M=%d above lb" name pname m')
              true
              (Tr.io res'.Sch.counters >= lb')
          | exception Sch.Cache_too_small _ -> ())
        [
          ("belady", fun () -> Sch.run_belady w ~cache_size:m' order);
          ("lru", fun () -> Sch.run_lru w ~cache_size:m' order);
        ])
    (let tw, torder = reduction_tree 4 in
     let rw = random_workload 5 in
     [
       ("strassen4", w4, dfs4);
       ("tree h=4", tw, Array.to_list torder);
       ("random dag", rw, non_input_topo rw);
     ])

(* LRU at M = MAXLIVE must be spill-free too, now that dead residents
   (unstored outputs past their last use) are preferred victims: io is
   exactly compulsory inputs + outputs, with zero reloads and zero
   non-output stores. One word less and a spill is forced — io strictly
   grows. Checked for both the explicit-graph scheduler and the
   streaming implicit executor (identical traces by contract). *)
let test_lru_spill_free_boundary () =
  List.iter
    (fun (name, w, order) ->
      let lv = Df.order_liveness w (Array.of_list order) in
      let m = lv.Df.maxlive in
      let compulsory = lv.Df.inputs_used + lv.Df.outputs_stored in
      let at = Sch.run_lru w ~cache_size:m order in
      Alcotest.(check int)
        (name ^ " lru at MAXLIVE: io = inputs + outputs")
        compulsory
        (Tr.io at.Sch.counters);
      Alcotest.(check int)
        (name ^ " lru at MAXLIVE: loads = used inputs")
        lv.Df.inputs_used at.Sch.counters.Tr.loads;
      Alcotest.(check int)
        (name ^ " lru at MAXLIVE: stores = outputs")
        lv.Df.outputs_stored at.Sch.counters.Tr.stores;
      (* one word below the boundary a spill is forced *)
      match Sch.run_lru w ~cache_size:(m - 1) order with
      | below ->
        Alcotest.(check bool)
          (name ^ " lru at MAXLIVE-1: io strictly above compulsory")
          true
          (Tr.io below.Sch.counters > compulsory)
      | exception Sch.Cache_too_small _ -> (* cache below max in-degree: vacuous *) ())
    (let tw, torder = reduction_tree 4 in
     let rw = random_workload 5 in
     [
       ("strassen4", w4, dfs4);
       ("strassen8", w8, dfs8);
       ("tree h=4", tw, Array.to_list torder);
       ("random dag", rw, non_input_topo rw);
     ]);
  (* same boundary for the streaming implicit executor *)
  let module Im = Fmm_cdag.Implicit in
  let module Se = Fmm_machine.Stream_exec in
  let imp = Im.create S.strassen ~n:8 in
  let s = Df.implicit_order_liveness imp in
  let m = s.Df.Streamed.maxlive in
  let compulsory = s.Df.Streamed.inputs_used + s.Df.Streamed.outputs_stored in
  let at = Se.run_lru imp ~cache_size:m () in
  Alcotest.(check int) "stream lru at MAXLIVE: io = inputs + outputs" compulsory
    (Tr.io at);
  let below = Se.run_lru imp ~cache_size:(m - 1) () in
  Alcotest.(check bool) "stream lru at MAXLIVE-1: io strictly above" true
    (Tr.io below > compulsory)

(* --- the certifier end to end --- *)

let test_certify_clean () =
  let c = Ct.run ~cdag:cdag8 ~cache_size:32 w8 ~order:dfs8 in
  Alcotest.(check bool) "certified" true (Ct.certified c);
  Alcotest.(check int) "three policies" 3 (List.length c.Ct.rows);
  List.iter
    (fun r ->
      Alcotest.(check bool) (r.Ct.policy ^ " feasible") true r.Ct.feasible;
      Alcotest.(check bool) (r.Ct.policy ^ " agrees") true r.Ct.agree)
    c.Ct.rows;
  (* jobs must not change the result *)
  let c4 = Ct.run ~jobs:4 ~cdag:cdag8 ~cache_size:32 w8 ~order:dfs8 in
  Alcotest.(check bool) "jobs-invariant" true
    (List.map (fun r -> (r.Ct.policy, r.Ct.io, r.Ct.min_cache)) c.Ct.rows
    = List.map (fun r -> (r.Ct.policy, r.Ct.io, r.Ct.min_cache)) c4.Ct.rows)

(* --- check_cached reproduces check; check_delta reproduces both --- *)

let fields_of_result (r : Tc.result) =
  ( r.Tc.counters,
    Dg.n_errors r.Tc.report,
    r.Tc.dead_loads,
    r.Tc.redundant_stores,
    r.Tc.peak_occupancy )

let fields_of_verdict (v : Tc.verdict) =
  ( v.Tc.v_counters,
    v.Tc.v_errors,
    v.Tc.v_dead_loads,
    v.Tc.v_redundant_stores,
    v.Tc.v_peak_occupancy )

let test_check_cached_matches_check () =
  List.iter
    (fun (name, w, m, run) ->
      let trace = (run ()).Sch.trace in
      let r = Tc.check ~cache_size:m w trace in
      let v, cache = Tc.check_cached ~cache_size:m w trace in
      Alcotest.(check bool) (name ^ " verdict = check") true
        (fields_of_verdict v = fields_of_result r);
      Alcotest.(check int)
        (name ^ " accounting covers the trace")
        (Tr.length trace)
        (v.Tc.reused_prefix + v.Tc.replayed + v.Tc.reused_suffix);
      Alcotest.(check int)
        (name ^ " cache length")
        (Tr.length trace)
        (Tc.cache_trace_length cache);
      Alcotest.(check bool) (name ^ " cache_verdict") true
        (fields_of_verdict (Tc.cache_verdict cache) = fields_of_verdict v))
    scheduler_runs

(* identical trace: the delta replays at most the residue after the
   last bitset checkpoint, never a constant fraction of the trace *)
let test_check_delta_identity () =
  let trace = (Sch.run_lru w8 ~cache_size:64 dfs8).Sch.trace in
  let len = Tr.length trace in
  let v0, base = Tc.check_cached ~cache_size:64 w8 trace in
  let v = Tc.check_delta ~base w8 trace in
  Alcotest.(check bool) "same verdict" true
    (fields_of_verdict v = fields_of_verdict v0);
  Alcotest.(check int) "accounting sums" len
    (v.Tc.reused_prefix + v.Tc.replayed + v.Tc.reused_suffix);
  let k_every = max 32 (len / 64) in
  Alcotest.(check bool)
    (Printf.sprintf "replayed %d within checkpoint residue %d" v.Tc.replayed
       k_every)
    true
    (v.Tc.replayed <= k_every)

(* --- seeded differential fuzz: Tc.check, check_delta and the dynamic
   machine must agree on every mutant --- *)

type mutation = Drop_load | Drop_evict | Swap_window | Dup_event | Drop_tail

let mutate_events rng trace =
  let arr = Array.of_list trace in
  let n = Array.length arr in
  if n < 8 then (trace, "tiny")
  else
    match List.nth [ Drop_load; Drop_evict; Swap_window; Dup_event; Drop_tail ]
            (Prng.int rng 5)
    with
    | Drop_load ->
      let loads =
        List.filteri (fun _ e -> match e with Tr.Load _ -> true | _ -> false)
          trace
        |> List.length
      in
      if loads = 0 then (trace, "noop")
      else begin
        let k = Prng.int rng loads in
        let seen = ref (-1) in
        ( List.filter
            (fun e ->
              match e with
              | Tr.Load _ ->
                incr seen;
                !seen <> k
              | _ -> true)
            trace,
          "drop-load" )
      end
    | Drop_evict ->
      let evicts =
        List.filteri (fun _ e -> match e with Tr.Evict _ -> true | _ -> false)
          trace
        |> List.length
      in
      if evicts = 0 then (trace, "noop")
      else begin
        let k = Prng.int rng evicts in
        let seen = ref (-1) in
        ( List.filter
            (fun e ->
              match e with
              | Tr.Evict _ ->
                incr seen;
                !seen <> k
              | _ -> true)
            trace,
          "drop-evict" )
      end
    | Swap_window ->
      let i = Prng.int rng (n - 2) in
      let j = i + 1 + Prng.int rng (min 16 (n - i - 1)) in
      let tmp = arr.(i) in
      arr.(i) <- arr.(j);
      arr.(j) <- tmp;
      (Array.to_list arr, "swap-window")
    | Dup_event ->
      let i = Prng.int rng n in
      ( Array.to_list (Array.concat [ Array.sub arr 0 i; [| arr.(i) |];
                                      Array.sub arr i (n - i) ]),
        "dup-event" )
    | Drop_tail ->
      let k = 1 + Prng.int rng (n / 4) in
      (Array.to_list (Array.sub arr 0 (n - k)), "drop-tail")

(* mutations are edits of the readable event list *)
let mutate rng trace =
  let events, kind = mutate_events rng (Tr.to_list trace) in
  (Tr.of_list events, kind)

let agree_on_mutant ~name w m base mutant =
  let r = Tc.check ~cache_size:m w mutant in
  let vc, _ = Tc.check_cached ~cache_size:m w mutant in
  let vd = Tc.check_delta ~base w mutant in
  Alcotest.(check bool) (name ^ " check_cached = check") true
    (fields_of_verdict vc = fields_of_result r);
  Alcotest.(check bool) (name ^ " check_delta = check_cached") true
    (fields_of_verdict vd = fields_of_verdict vc);
  Alcotest.(check int)
    (name ^ " delta accounting")
    (Tr.length mutant)
    (vd.Tc.reused_prefix + vd.Tc.replayed + vd.Tc.reused_suffix);
  (* legality verdict agreement with the dynamic machine *)
  let dynamic_ok =
    try
      ignore (CM.replay { CM.cache_size = m; allow_recompute = true } w mutant);
      true
    with CM.Illegal _ -> false
  in
  Alcotest.(check bool)
    (name ^ " static errors iff dynamic Illegal")
    dynamic_ok (vd.Tc.v_errors = 0)

let test_fuzz_differential () =
  let configs =
    [
      ("strassen4/lru16", w4, 16, (Sch.run_lru w4 ~cache_size:16 dfs4).Sch.trace);
      ( "strassen4/belady16",
        w4,
        16,
        (Sch.run_belady w4 ~cache_size:16 dfs4).Sch.trace );
      ( "strassen4/remat24",
        w4,
        24,
        (Sch.run_rematerialize w4 ~cache_size:24 dfs4).Sch.trace );
      (let w = random_workload 5 in
       ( "random5/lru",
         w,
         8,
         (Sch.run_lru w ~cache_size:8 (non_input_topo w)).Sch.trace ));
    ]
  in
  List.iter
    (fun (cname, w, m, trace) ->
      let _, base = Tc.check_cached ~cache_size:m w trace in
      for k = 1 to 25 do
        let rng = Prng.create ~seed:(Prng.derive ~seed:0xf077 [ k ]) in
        let mutant, kind = mutate rng trace in
        agree_on_mutant
          ~name:(Printf.sprintf "%s #%d %s" cname k kind)
          w m base mutant
      done)
    configs

(* shrink-cache mutants: same trace checked at a smaller M — the base
   must be rebuilt at that M (a cache is (workload, M, trace)-specific) *)
let test_fuzz_shrink_cache () =
  let trace = (Sch.run_lru w4 ~cache_size:16 dfs4).Sch.trace in
  List.iter
    (fun m' ->
      let _, base = Tc.check_cached ~cache_size:m' w4 trace in
      (* identity delta at the shrunk size *)
      agree_on_mutant
        ~name:(Printf.sprintf "shrink M=%d identity" m')
        w4 m' base trace;
      (* plus a seeded mutant at the shrunk size *)
      let rng = Prng.create ~seed:(Prng.derive ~seed:0xf077 [ 0x5c; m' ]) in
      let mutant, kind = mutate rng trace in
      agree_on_mutant
        ~name:(Printf.sprintf "shrink M=%d %s" m' kind)
        w4 m' base mutant)
    [ 15; 12; 9; 6 ]

let test_delta_rejects_wrong_workload () =
  let trace = (Sch.run_lru w4 ~cache_size:16 dfs4).Sch.trace in
  let _, base = Tc.check_cached ~cache_size:16 w4 trace in
  Alcotest.(check bool) "vertex-count mismatch raises" true
    (try
       ignore (Tc.check_delta ~base w8 trace);
       false
     with Invalid_argument _ -> true)

(* --- fmm-analyze/v1 round-trip and strict parsing --- *)

let sample_report () =
  let cert = Ct.run ~cdag:cdag4 ~cache_size:24 w4 ~order:dfs4 in
  let lint = Fmm_analysis.Cdag_lint.lint cdag4 in
  let chk =
    Tc.check ~cache_size:24 w4 (Sch.run_lru w4 ~cache_size:24 dfs4).Sch.trace
  in
  {
    Aj.algorithm = "Strassen";
    n = 4;
    cache_size = 24;
    order = "dfs";
    depth = 1;
    procs = 7;
    corrupt = "none";
    passes =
      [
        { Aj.title = "CDAG lint"; diags = lint.Dg.diags };
        { Aj.title = "trace check"; diags = chk.Tc.report.Dg.diags };
        { Aj.title = "certifier"; diags = cert.Ct.report.Dg.diags };
      ];
    certify = Some (Aj.certify_of_result cert);
  }

let test_analyze_json_roundtrip () =
  let t = sample_report () in
  let j = Aj.to_json t in
  (* schema is the first field *)
  (match j with
  | J.Obj ((k, J.Str v) :: _) ->
    Alcotest.(check string) "schema field first" "schema" k;
    Alcotest.(check string) "schema value" Aj.schema v
  | _ -> Alcotest.fail "expected object with leading schema");
  let s = J.to_string ~indent:2 j in
  (match Aj.of_json (J.of_string s) with
  | Error e -> Alcotest.fail ("round-trip rejected: " ^ e)
  | Ok t' ->
    Alcotest.(check bool) "value round-trips" true (t = t');
    Alcotest.(check string) "byte-identical re-serialization" s
      (J.to_string ~indent:2 (Aj.to_json t')))

(* include a diagnostics-bearing pass: a corrupted trace *)
let test_analyze_json_roundtrip_with_errors () =
  let trace = (Sch.run_lru w4 ~cache_size:16 dfs4).Sch.trace in
  let corrupted =
    Tr.of_list (List.filter (function Tr.Evict _ -> false | _ -> true) (Tr.to_list trace))
  in
  let chk = Tc.check ~cache_size:16 w4 corrupted in
  Alcotest.(check bool) "has errors" true (Dg.n_errors chk.Tc.report > 0);
  let t =
    {
      (sample_report ()) with
      Aj.corrupt = "overflow";
      passes = [ { Aj.title = "trace check"; diags = chk.Tc.report.Dg.diags } ];
      certify = None;
    }
  in
  let s = J.to_string (Aj.to_json t) in
  match Aj.of_json (J.of_string s) with
  | Error e -> Alcotest.fail ("rejected: " ^ e)
  | Ok t' -> Alcotest.(check bool) "round-trips" true (t = t')

let expect_reject name j =
  match Aj.of_json j with
  | Ok _ -> Alcotest.fail (name ^ ": strict parser accepted bad input")
  | Error _ -> ()

let test_analyze_json_strict () =
  let t = sample_report () in
  let j = Aj.to_json t in
  let fields = match j with J.Obj f -> f | _ -> Alcotest.fail "obj" in
  (* unknown top-level field *)
  expect_reject "unknown field" (J.Obj (fields @ [ ("bogus", J.Int 1) ]));
  (* missing required field *)
  expect_reject "missing field"
    (J.Obj (List.filter (fun (k, _) -> k <> "n") fields));
  (* type mismatch *)
  expect_reject "type mismatch"
    (J.Obj
       (List.map (fun (k, v) -> if k = "n" then (k, J.Str "4") else (k, v)) fields));
  (* wrong schema string *)
  expect_reject "wrong schema"
    (J.Obj
       (List.map
          (fun (k, v) -> if k = "schema" then (k, J.Str "fmm-analyze/v0") else (k, v))
          fields));
  (* tampered summary count *)
  let tampered =
    List.map
      (fun (k, v) ->
        if k <> "summary" then (k, v)
        else
          match v with
          | J.Obj sf ->
            ( k,
              J.Obj
                (List.map
                   (fun (sk, sv) -> if sk = "errors" then (sk, J.Int 99) else (sk, sv))
                   sf) )
          | _ -> (k, v))
      fields
  in
  expect_reject "count mismatch" (J.Obj tampered);
  (* not an object at all *)
  expect_reject "not an object" (J.List [])

(* --- the packed trace is read in place --- *)

(* Words allocated by [f]: minor words plus direct major allocations.
   The runtime's major-word counter can lose words across a major
   slice, so the minor count alone is taken when it is larger. *)
let words_allocated f =
  let m0 = Gc.minor_words () and b0 = Gc.allocated_bytes () in
  let r = f () in
  let minor = Gc.minor_words () -. m0 in
  let all = (Gc.allocated_bytes () -. b0) /. float_of_int (Sys.word_size / 8) in
  (r, Float.max minor all)

(* the trace consumers allocate O(V) (state, diagnostics), never
   anything per event: on the 78 406-event remat trace each allocates
   fewer words than the trace has events *)
let test_consumers_allocate_no_per_event () =
  let trace = (Sch.run_rematerialize w8 ~cache_size:32 dfs8).Sch.trace in
  let events = float_of_int (Tr.length trace) in
  let prof, w_prof = words_allocated (fun () -> Df.trace_profile w8 trace) in
  let chk, w_chk = words_allocated (fun () -> Tc.check ~cache_size:32 w8 trace) in
  let _, w_count = words_allocated (fun () -> Tr.count trace) in
  Alcotest.(check int) "clean trace" 0 (Dg.n_errors chk.Tc.report);
  Alcotest.(check int) "profile peak = checked peak" chk.Tc.peak_occupancy prof.Df.peak_occupancy;
  List.iter
    (fun (name, words) ->
      if words >= events then
        Alcotest.failf "%s allocates %.0f words for %.0f events" name words events)
    [ ("trace_profile", w_prof); ("Trace_check.check", w_chk); ("Trace.count", w_count) ]

let () =
  Alcotest.run "fmm_dataflow"
    [
      ( "substrate",
        [
          Alcotest.test_case "bitset" `Quick test_bitset;
          Alcotest.test_case "reachability vs naive" `Quick
            test_fixpoint_reachability;
          Alcotest.test_case "longest path" `Quick test_fixpoint_longest_path;
        ] );
      ( "maxlive",
        [
          Alcotest.test_case "chain" `Quick test_maxlive_chain;
          Alcotest.test_case "reduction trees (Ershov)" `Quick
            test_maxlive_tree;
          Alcotest.test_case "random DAGs vs naive" `Quick
            test_maxlive_random_dags;
          Alcotest.test_case "order validation" `Quick
            test_order_liveness_validates;
        ] );
      ( "static-vs-dynamic",
        [
          Alcotest.test_case "min_cache = dynamic peak" `Quick
            test_profile_matches_dynamic_peak;
          Alcotest.test_case "spill-free at MAXLIVE" `Quick
            test_spill_free_at_maxlive;
          Alcotest.test_case "lru spill-free boundary (MAXLIVE vs -1)" `Quick
            test_lru_spill_free_boundary;
          Alcotest.test_case "certifier clean + jobs-invariant" `Quick
            test_certify_clean;
        ] );
      ( "packed trace",
        [
          Alcotest.test_case "consumers allocate no per-event words" `Quick
            test_consumers_allocate_no_per_event;
        ] );
      ( "incremental",
        [
          Alcotest.test_case "check_cached = check" `Quick
            test_check_cached_matches_check;
          Alcotest.test_case "identity delta" `Quick test_check_delta_identity;
          Alcotest.test_case "workload mismatch" `Quick
            test_delta_rejects_wrong_workload;
        ] );
      ( "fuzz",
        [
          Alcotest.test_case "differential mutants" `Quick
            test_fuzz_differential;
          Alcotest.test_case "shrink cache" `Quick test_fuzz_shrink_cache;
        ] );
      ( "analyze-json",
        [
          Alcotest.test_case "round-trip" `Quick test_analyze_json_roundtrip;
          Alcotest.test_case "round-trip with errors" `Quick
            test_analyze_json_roundtrip_with_errors;
          Alcotest.test_case "strict parse rejections" `Quick
            test_analyze_json_strict;
        ] );
    ]
