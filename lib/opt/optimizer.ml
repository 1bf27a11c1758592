(* Beam-search I/O-schedule optimizer. The machine layer can *replay*
   fixed policies; this module *searches*: over compute orders and over
   per-eviction spill-vs-recompute decisions (Schedulers.run_hybrid),
   the space Theorem 1.1 quantifies over. The measured-to-bound ratios
   the registry reports are only as meaningful as the best schedule
   anyone found — the optimizer is the instrument that pushes the
   measured side down toward the bound.

   Structure of one search:
     seed beam  <- every (seed order x {lru, belady, remat}) that runs
     iterate    <- per beam entry, derive mutation seeds (Prng.derive),
                   generate candidates sequentially, evaluate them on
                   the Fmm_par pool (order-preserving), keep the best
                   [beam] distinct evaluations (elitist)
     oracle     <- every NEW beam entry replays through Cache_machine
                   and Fmm_analysis.Trace_check; any violation or
                   dead-load/redundant-store lint raises Illegal_schedule

   Determinism: mutation happens in the calling domain with seeds
   derived from (iteration, beam index, move index); the pool only
   evaluates. Reports are identical at every [jobs]. *)

module W = Fmm_machine.Workload
module Sch = Fmm_machine.Schedulers
module Tr = Fmm_machine.Trace
module CM = Fmm_machine.Cache_machine
module Seg = Fmm_machine.Segments
module Ord = Fmm_machine.Orders
module Tc = Fmm_analysis.Trace_check
module Diag = Fmm_analysis.Diagnostic
module D = Fmm_graph.Digraph
module Cd = Fmm_cdag.Cdag
module Prng = Fmm_util.Prng

type policy = Lru | Belady | Remat | Hybrid of bool array

let policy_name = function
  | Lru -> "lru"
  | Belady -> "belady"
  | Remat -> "remat"
  | Hybrid flags ->
    let k = Array.fold_left (fun acc b -> if b then acc + 1 else acc) 0 flags in
    Printf.sprintf "hybrid(%d recompute)" k

type candidate = { order : int array; policy : policy; provenance : string }

type eval = { candidate : candidate; result : Sch.result; io : int }

type oracle_mode = Full_replay | Incremental

let oracle_mode_name = function
  | Full_replay -> "full-replay"
  | Incremental -> "incremental"

type report = {
  workload : string;
  cache_size : int;
  seed : int;
  beam_width : int;
  iterations : int;
  evaluated : int;
  rejected : int;
  accepted : int;
  best : eval;
  beam : eval list;
  history : int list;
  baselines : (string * int option) list;
  oracle_mode : oracle_mode;
  oracle_replayed : int;
  oracle_total : int;
}

exception Illegal_schedule of string

(* --- evaluation --- *)

let run_candidate work ~cache_size ~max_flops cand =
  let order = Array.to_list cand.order in
  match cand.policy with
  | Lru -> Sch.run_lru work ~cache_size order
  | Belady -> Sch.run_belady work ~cache_size order
  | Remat -> Sch.run_rematerialize ~max_flops work ~cache_size order
  | Hybrid flags ->
    Sch.run_hybrid ~max_flops work ~cache_size
      ~recompute:(fun v -> flags.(v))
      order

(* A candidate the schedulers refuse (a cache too small for its policy,
   a blown flop cap) is infeasible, not an error; the refusal is
   returned so a search whose every seed was refused can say why. *)
let evaluate work ~cache_size ~max_flops cand =
  match run_candidate work ~cache_size ~max_flops cand with
  | result -> Ok { candidate = cand; result; io = Tr.io result.Sch.counters }
  | exception ((Failure _ | Sch.Cache_too_small _) as refusal) -> Error refusal

(* The legality oracle: the checked trace must carry the exact I/O the
   scheduler claimed, with zero violations AND zero lint findings (a
   dead load or a redundant store would mean the optimizer "improved"
   I/O it never needed to spend).

   Two modes, identical verdicts (the differential fuzz suite holds
   them together):

   - Full_replay: the original debug reference — a Cache_machine
     replay plus a full Trace_check pass, both O(trace) per entrant.
   - Incremental: Trace_check.check_delta against the memoized run of
     the entrant's closest beam ancestor. A candidate's provenance is
     its ancestry string, and every move appends to it, so the longest
     provenance-prefix match among the memoized bases is the nearest
     ancestor; the delta check then costs O(mutated window). When no
     base matches (seeds) or the window covered most of the trace
     (policy flips), the entrant is re-memoized with check_cached so
     its own descendants diff against a close base. *)

let fail_candidate ev fmt =
  Printf.ksprintf
    (fun s ->
      raise
        (Illegal_schedule
           (Printf.sprintf "%s [candidate %s]" s ev.candidate.provenance)))
    fmt

let oracle_full work ~cache_size ev =
  let fail fmt = fail_candidate ev fmt in
  (match
     CM.replay { CM.cache_size; allow_recompute = true } work ev.result.Sch.trace
   with
  | c ->
    if Tr.io c <> ev.io then
      fail "replayed I/O %d disagrees with scheduler's %d" (Tr.io c) ev.io
  | exception CM.Illegal msg -> fail "Cache_machine: %s" msg);
  let r = Tc.check ~cache_size work ev.result.Sch.trace in
  let errs = Diag.n_errors r.Tc.report in
  if errs > 0 then fail "Trace_check: %d violation(s)" errs;
  if r.Tc.dead_loads > 0 then fail "Trace_check: %d dead load(s)" r.Tc.dead_loads;
  if r.Tc.redundant_stores > 0 then
    fail "Trace_check: %d redundant store(s)" r.Tc.redundant_stores

let check_verdict ev (v : Tc.verdict) =
  let fail fmt = fail_candidate ev fmt in
  if v.Tc.v_errors > 0 then fail "Trace_check: %d violation(s)" v.Tc.v_errors;
  if v.Tc.v_dead_loads > 0 then
    fail "Trace_check: %d dead load(s)" v.Tc.v_dead_loads;
  if v.Tc.v_redundant_stores > 0 then
    fail "Trace_check: %d redundant store(s)" v.Tc.v_redundant_stores;
  if Tr.io v.Tc.v_counters <> ev.io then
    fail "checked I/O %d disagrees with scheduler's %d"
      (Tr.io v.Tc.v_counters) ev.io

(* --- move helpers --- *)

let flags_of_policy work = function
  | Hybrid f -> Array.copy f
  | Lru | Belady -> Array.make (W.n_vertices work) false
  | Remat ->
    let is_input = W.is_input work and is_output = W.is_output work in
    Array.init (W.n_vertices work) (fun v ->
        (not (is_input v)) && not (is_output v))

(* Order position of every vertex: its index in the first-time compute
   sequence; -1 for inputs. *)
let positions work order =
  let pos = Array.make (W.n_vertices work) (-1) in
  Array.iteri (fun i v -> pos.(v) <- i) order;
  pos

(* Move 1: flip spill<->recompute for a few values. Flip-to-recompute
   targets values the trace actually spilled (a Store of a non-output);
   flip-to-spill targets values it actually recomputed. Anything else
   cannot change the schedule. *)
let flip_move rng work ev =
  let is_output = W.is_output work in
  let flags = flags_of_policy work ev.candidate.policy in
  let n = W.n_vertices work in
  let stores = Array.make n false and computes = Array.make n 0 in
  let trace = ev.result.Sch.trace in
  for i = 0 to Tr.length trace - 1 do
    let c = Tr.code trace i in
    let v = Tr.vertex c in
    match Tr.kind c with
    | `Store -> if not (is_output v) then stores.(v) <- true
    | `Compute -> computes.(v) <- computes.(v) + 1
    | `Load | `Evict -> ()
  done;
  let pool = ref [] in
  for v = n - 1 downto 0 do
    if (stores.(v) && not flags.(v)) || (computes.(v) > 1 && flags.(v)) then
      pool := v :: !pool
  done;
  let pool = Array.of_list !pool in
  if Array.length pool = 0 then None
  else begin
    let k = min (Array.length pool) (1 + Prng.int rng 4) in
    let picks = Prng.sample rng k (Array.length pool) in
    List.iter (fun i -> flags.(pool.(i)) <- not flags.(pool.(i))) picks;
    Some
      {
        order = ev.candidate.order;
        policy = Hybrid flags;
        provenance = Printf.sprintf "%s/flip%d" ev.candidate.provenance k;
      }
  end

(* Segment-local hot window: the contiguous run of order positions
   covered by the worst (max I/O) full segment of Segments.analyze.
   The boundaries are re-derived by replaying the trace with the same
   cutting rule the analyzer uses (quota-th first-time computations of
   V_out(SUB_H^{r x r})), while counting first-time computes of ANY
   vertex — which is the order position, since every scheduler emits
   first computes in order sequence. *)
let segment_window cdag ~cache_size work trace order_len =
  let size = Cd.size cdag in
  let base =
    let n0, _, _ = Fmm_bilinear.Algorithm.dims (Cd.base_algorithm cdag) in
    max 2 n0
  in
  let target = max base (2 * int_of_float (sqrt (float_of_int cache_size))) in
  let r = ref base in
  while !r * base <= size && !r * base <= target do
    r := !r * base
  done;
  let r = !r in
  if r > size then None
  else begin
    let a = Seg.analyze cdag ~cache_size ~r trace in
    match Seg.full_segments a with
    | [] -> None
    | fulls ->
      let worst =
        List.fold_left
          (fun acc s -> if s.Seg.io > acc.Seg.io then s else acc)
          (List.hd fulls) fulls
      in
      let is_sub = Array.make (W.n_vertices work) false in
      List.iter (fun v -> is_sub.(v) <- true) (Cd.sub_outputs cdag ~r);
      let computed = Array.make (W.n_vertices work) false in
      let boundaries = ref [] in
      let pos = ref 0 and sub_seen = ref 0 in
      for i = 0 to Tr.length trace - 1 do
        let c = Tr.code trace i in
        let v = Tr.vertex c in
        match Tr.kind c with
        | `Compute when not computed.(v) ->
          computed.(v) <- true;
          incr pos;
          if is_sub.(v) then begin
            incr sub_seen;
            if !sub_seen = a.Seg.quota then begin
              boundaries := !pos :: !boundaries;
              sub_seen := 0
            end
          end
        | _ -> ()
      done;
      let bounds = Array.of_list (List.rev !boundaries) in
      if worst.Seg.index >= Array.length bounds then None
      else begin
        let hi = bounds.(worst.Seg.index) in
        let lo = if worst.Seg.index = 0 then 0 else bounds.(worst.Seg.index - 1) in
        if hi - lo >= 3 && hi <= order_len then Some (lo, hi) else None
      end
  end

(* Generic hot window: attribute each Load/Store to the order position
   of the latest first-time compute and take the fixed-width window
   with the most I/O. *)
let generic_window work trace order_len ~cache_size =
  let w = max 8 (min (4 * cache_size) (order_len / 4)) in
  if order_len < w || w < 3 then None
  else begin
    let io_at = Array.make order_len 0 in
    let computed = Array.make (W.n_vertices work) false in
    let pos = ref 0 in
    for i = 0 to Tr.length trace - 1 do
      let c = Tr.code trace i in
      match Tr.kind c with
      | `Compute when not computed.(Tr.vertex c) ->
        computed.(Tr.vertex c) <- true;
        incr pos
      | `Load | `Store ->
        let p = min (max 0 (!pos - 1)) (order_len - 1) in
        io_at.(p) <- io_at.(p) + 1
      | _ -> ()
    done;
    let sum = ref 0 in
    for i = 0 to w - 1 do
      sum := !sum + io_at.(i)
    done;
    let best_lo = ref 0 and best_sum = ref !sum in
    for lo = 1 to order_len - w do
      sum := !sum - io_at.(lo - 1) + io_at.(lo + w - 1);
      if !sum > !best_sum then begin
        best_sum := !sum;
        best_lo := lo
      end
    done;
    Some (!best_lo, !best_lo + w)
  end

(* Re-linearize the window with a seeded random topological order of
   its own vertices. Edges crossing the window boundary are untouched
   (everything before the window stays before, after stays after), so
   any internal-edge-respecting permutation keeps the whole order
   topological. *)
let reshuffle_window rng work order lo hi =
  let g = W.graph work in
  let w = hi - lo in
  let verts = Array.sub order lo w in
  let local = Hashtbl.create (2 * w) in
  Array.iteri (fun i v -> Hashtbl.replace local v i) verts;
  let indeg = Array.make w 0 in
  Array.iter
    (fun v ->
      List.iter
        (fun p -> if Hashtbl.mem local p then indeg.(Hashtbl.find local v) <- indeg.(Hashtbl.find local v) + 1)
        (D.in_neighbors g v))
    verts;
  let ready = ref [] in
  for i = w - 1 downto 0 do
    if indeg.(i) = 0 then ready := i :: !ready
  done;
  let out = Array.make w (-1) in
  let filled = ref 0 in
  while !ready <> [] do
    let arr = Array.of_list !ready in
    let pick = arr.(Prng.int rng (Array.length arr)) in
    ready := List.filter (fun i -> i <> pick) !ready;
    out.(!filled) <- verts.(pick);
    incr filled;
    List.iter
      (fun s ->
        match Hashtbl.find_opt local s with
        | Some j ->
          indeg.(j) <- indeg.(j) - 1;
          if indeg.(j) = 0 then ready := j :: !ready
        | None -> ())
      (D.out_neighbors g verts.(pick))
  done;
  if !filled < w then None (* cannot happen on a DAG; defensive *)
  else if out = verts then None
  else begin
    let order' = Array.copy order in
    Array.blit out 0 order' lo w;
    Some order'
  end

(* Move 2: reorder within the hottest segment. *)
let reorder_move rng ?cdag ~cache_size work ev =
  let order = ev.candidate.order in
  let order_len = Array.length order in
  let window =
    match cdag with
    | Some c -> (
      match segment_window c ~cache_size work ev.result.Sch.trace order_len with
      | Some w -> Some w
      | None -> generic_window work ev.result.Sch.trace order_len ~cache_size)
    | None -> generic_window work ev.result.Sch.trace order_len ~cache_size
  in
  match window with
  | None -> None
  | Some (lo, hi) -> (
    match reshuffle_window rng work order lo hi with
    | None -> None
    | Some order' ->
      Some
        {
          order = order';
          policy = ev.candidate.policy;
          provenance =
            Printf.sprintf "%s/seg[%d,%d)" ev.candidate.provenance lo hi;
        })

(* Move 3: hoist a reload — a value the trace loads more than once (or
   re-loads after spilling) has consumers far apart; moving its last
   consumer as early as legality allows clusters the uses so one
   residency can serve them. *)
let hoist_move rng work ev =
  let is_input = W.is_input work in
  let g = W.graph work in
  let n = W.n_vertices work in
  let order = ev.candidate.order in
  let pos = positions work order in
  let loads = Array.make n 0 in
  let trace = ev.result.Sch.trace in
  for i = 0 to Tr.length trace - 1 do
    let c = Tr.code trace i in
    match Tr.kind c with
    | `Load -> loads.(Tr.vertex c) <- loads.(Tr.vertex c) + 1
    | _ -> ()
  done;
  let pool = ref [] in
  for v = n - 1 downto 0 do
    if loads.(v) >= 2 || (loads.(v) >= 1 && not (is_input v)) then
      pool := v :: !pool
  done;
  let pool = Array.of_list !pool in
  if Array.length pool = 0 then None
  else begin
    let p = pool.(Prng.int rng (Array.length pool)) in
    let consumers =
      List.filter (fun c -> pos.(c) >= 0) (D.out_neighbors g p)
      |> List.sort (fun a b -> compare pos.(a) pos.(b))
    in
    match consumers with
    | [] | [ _ ] -> None
    | first :: rest ->
      let c = List.nth rest (List.length rest - 1) in
      let cpos = pos.(c) in
      let earliest =
        List.fold_left (fun acc q -> max acc (pos.(q) + 1)) 0 (D.in_neighbors g c)
      in
      let target = max earliest (pos.(first) + 1) in
      if target >= cpos then None
      else begin
        let order' = Array.copy order in
        (* slide [target, cpos) right by one, put c at target *)
        Array.blit order target order' (target + 1) (cpos - target);
        order'.(target) <- c;
        Some
          {
            order = order';
            policy = ev.candidate.policy;
            provenance =
              Printf.sprintf "%s/hoist%d@%d" ev.candidate.provenance c target;
          }
      end
  end

let moves_per_candidate = 6

let mutate ~seed ~it ~bi ~mi ?cdag ~cache_size work ev =
  let rng = Prng.create ~seed:(Prng.derive ~seed [ it; bi; mi ]) in
  match mi mod 3 with
  | 0 -> flip_move rng work ev
  | 1 -> reorder_move rng ?cdag ~cache_size work ev
  | _ -> hoist_move rng work ev

(* --- beam selection --- *)

let same_candidate a b =
  a.candidate.policy = b.candidate.policy && a.candidate.order = b.candidate.order

(* Best [width] distinct evaluations; stable in the input order on I/O
   ties, so selection is deterministic and elitist (current beam is
   listed first by the caller). *)
let take_beam width evals =
  let sorted = List.stable_sort (fun a b -> compare a.io b.io) evals in
  List.fold_left
    (fun acc ev ->
      if List.length acc >= width then acc
      else if List.exists (same_candidate ev) acc then acc
      else acc @ [ ev ])
    [] sorted

(* --- the search --- *)

let search ?(jobs = 1) ?(beam = 4) ?(iters = 4) ?(seed = 1)
    ?(max_flops = 200_000_000) ?(oracle_mode = Incremental) ?cdag work
    ~cache_size ~orders =
  if beam < 1 then invalid_arg "Optimizer.search: beam < 1";
  if iters < 0 then invalid_arg "Optimizer.search: iters < 0";
  if orders = [] then invalid_arg "Optimizer.search: no seed orders";
  List.iter
    (fun (name, o) ->
      if not (W.is_valid_order work o) then
        invalid_arg
          (Printf.sprintf "Optimizer.search: seed order %S is not a valid \
                           topological order of %s"
             name (W.name work)))
    orders;
  let jobs = max 1 jobs in
  let evaluated = ref 0 and rejected = ref 0 and accepted = ref 0 in
  (* the feasible evaluations and the refusals of a batch *)
  let eval_batch cands =
    evaluated := !evaluated + List.length cands;
    let results = Fmm_par.Pool.map ~jobs (evaluate work ~cache_size ~max_flops) cands in
    let refusals = List.filter_map (function Error e -> Some e | Ok _ -> None) results in
    rejected := !rejected + List.length refusals;
    (List.filter_map Result.to_option results, refusals)
  in
  let seed_candidates =
    List.concat_map
      (fun (name, o) ->
        let order = Array.of_list o in
        List.map
          (fun policy ->
            { order; policy; provenance = name ^ "+" ^ policy_name policy })
          [ Lru; Belady; Remat ])
      orders
  in
  let seed_evals, seed_refusals = eval_batch seed_candidates in
  if seed_evals = [] then begin
    let msg =
      Printf.sprintf "Optimizer.search: no seed candidate executed on %s at M=%d"
        (W.name work) cache_size
    in
    if List.for_all (function Sch.Cache_too_small _ -> true | _ -> false) seed_refusals then
      raise (Sch.Cache_too_small (msg ^ " (cache too small)"))
    else failwith msg
  end;
  let baselines =
    let first_name = fst (List.hd orders) in
    List.map
      (fun p ->
        let prov = first_name ^ "+" ^ policy_name p in
        ( policy_name p,
          List.find_opt (fun ev -> ev.candidate.provenance = prov) seed_evals
          |> Option.map (fun ev -> ev.io) ))
      [ Lru; Belady; Remat ]
  in
  (* oracle + accounting for every schedule entering a beam *)
  let oracle_replayed = ref 0 and oracle_total = ref 0 in
  (* Memoized check runs keyed by provenance, most-recent-first, capped
     so at most ~one base per beam lineage is alive. Everything here is
     driven only by provenance strings and admission order, both
     deterministic, so reports stay identical at every [jobs]. *)
  let bases : (string * Tc.cache) list ref = ref [] in
  let base_cap = beam + 2 in
  let store_base prov c =
    let rest = List.filter (fun (k, _) -> k <> prov) !bases in
    let rec take k = function
      | [] -> []
      | x :: tl -> if k <= 0 then [] else x :: take (k - 1) tl
    in
    bases := (prov, c) :: take (base_cap - 1) rest
  in
  (* Nearest memoized ancestor: the longest key that is a prefix of the
     entrant's provenance (moves only ever append "/move" suffixes). *)
  let find_base prov =
    let plen = String.length prov in
    List.fold_left
      (fun acc (k, c) ->
        let klen = String.length k in
        if klen <= plen && String.sub prov 0 klen = k then
          match acc with
          | Some (k0, _) when String.length k0 >= klen -> acc
          | _ -> Some (k, c)
        else acc)
      None !bases
  in
  let oracle_incremental ev =
    let trace = ev.result.Sch.trace in
    let prov = ev.candidate.provenance in
    let memoize () =
      let v, c = Tc.check_cached ~cache_size work trace in
      store_base prov c;
      v
    in
    let v =
      match find_base prov with
      | None -> memoize ()
      | Some (_, base) ->
        let v = Tc.check_delta ~base work trace in
        let total = v.Tc.reused_prefix + v.Tc.replayed + v.Tc.reused_suffix in
        (* The mutation window covered most of the trace (typically a
           policy flip): this lineage has drifted too far from its
           base, so pay one full pass now to give its descendants a
           close base again. The verdict [v] itself is already exact. *)
        if 2 * v.Tc.replayed > total then ignore (memoize ());
        v
    in
    oracle_replayed := !oracle_replayed + v.Tc.replayed;
    oracle_total :=
      !oracle_total + v.Tc.reused_prefix + v.Tc.replayed + v.Tc.reused_suffix;
    check_verdict ev v
  in
  let oracle ev =
    match oracle_mode with
    | Incremental -> oracle_incremental ev
    | Full_replay ->
      let t = Tr.length ev.result.Sch.trace in
      oracle_replayed := !oracle_replayed + t;
      oracle_total := !oracle_total + t;
      oracle_full work ~cache_size ev
  in
  let checked = ref [] in
  let admit evs =
    List.iter
      (fun ev ->
        if not (List.memq ev !checked) then begin
          oracle ev;
          incr accepted;
          checked := ev :: !checked
        end)
      evs
  in
  let current = ref (take_beam beam seed_evals) in
  admit !current;
  let best_io () = (List.hd !current).io in
  let history = ref [ best_io () ] in
  for it = 1 to iters do
    let neighbors =
      List.concat
        (List.mapi
           (fun bi ev ->
             List.filter_map
               (fun mi -> mutate ~seed ~it ~bi ~mi ?cdag ~cache_size work ev)
               (List.init moves_per_candidate Fun.id))
           !current)
    in
    let fresh, _ = eval_batch neighbors in
    current := take_beam beam (!current @ fresh);
    admit !current;
    history := best_io () :: !history
  done;
  {
    workload = W.name work;
    cache_size;
    seed;
    beam_width = beam;
    iterations = iters;
    evaluated = !evaluated;
    rejected = !rejected;
    accepted = !accepted;
    best = List.hd !current;
    beam = !current;
    history = List.rev !history;
    baselines;
    oracle_mode;
    oracle_replayed = !oracle_replayed;
    oracle_total = !oracle_total;
  }

let optimize_cdag ?jobs ?beam ?iters ?(seed = 1) ?max_flops ?oracle_mode cdag
    ~cache_size =
  let work = W.of_cdag cdag in
  let orders =
    [
      ("dfs", Ord.recursive_dfs cdag);
      ("naive", Ord.naive_topo cdag);
      ("random", Ord.random_topo ~seed:(Prng.derive ~seed [ 0x5eed ]) cdag);
    ]
  in
  search ?jobs ?beam ?iters ~seed ?max_flops ?oracle_mode ~cdag work ~cache_size
    ~orders
