(* Pass 2: the symbolic trace checker.

   A resident-set interpreter over Trace.t with the same semantics as
   Cache_machine but a different failure discipline: every violation
   is recorded as a located diagnostic and the interpreter *recovers*
   (patches the state as if the event had been legal) so that one
   defect does not cascade into a wall of spurious downstream errors.
   On a legal trace the counters agree exactly with
   Cache_machine.replay — enforced by the test suite.

   Beyond legality it tracks provenance of every resident value
   (loaded at step s / computed) and whether it has been read since
   arrival, which yields the lint-grade findings the dynamic oracle
   cannot express: dead loads, redundant stores, and per-vertex
   recomputation attribution.

   The interpreter runs on Dataflow.Bitset abstract state (cache /
   slow / computed / unread-load sets) and can optionally maintain a
   pair of Zobrist hashes over that state. That is what makes the
   incremental oracle possible: check_cached memoizes per-step
   cumulative counters, state hashes and periodic bitset checkpoints,
   and check_delta re-verifies a mutated trace by restoring the
   checkpoint before the first divergence, replaying only the affected
   window, and splicing the memoized suffix back in as soon as the
   hashed abstract state reconverges with the base run. *)

module W = Fmm_machine.Workload
module Tr = Fmm_machine.Trace
module D = Fmm_graph.Digraph
module Dg = Diagnostic
module Bs = Dataflow.Bitset
module Z = Dataflow.Zobrist

type result = {
  report : Dg.report;
  counters : Tr.counters;
  recomputed : (int * int) list;
  dead_loads : int;
  redundant_stores : int;
  peak_occupancy : int;
}

let pass = "trace-check"

(* --- the engine --- *)

(* Diagnostics leave the engine through a sink so the same interpreter
   powers the full reporting pass (collector sink) and the silent
   incremental/fuzz paths; message formatting only ever runs on defect
   paths, so the silent modes pay nothing on clean traces. *)
type sink = Dg.severity -> code:string -> Dg.location -> string -> unit

let silent : sink = fun _ ~code:_ _ _ -> ()

(* Zobrist properties of a vertex (one key pair per (vertex, prop)). *)
let p_cache = 0
let p_slow = 1
let p_comp = 2
let p_unread = 3

type state = {
  n : int;
  cache_size : int;
  allow_recompute : bool;
  graph : D.t;
  is_input : int -> bool;
  cache : Bs.t;
  slow : Bs.t;
  comp : Bs.t;
  unread : Bs.t;
      (* resident values loaded and never read since: exactly the
         candidates for a dead-load lint, and the canonical fourth
         hash property (always a subset of [cache]) *)
  load_step : int array;
  last_evict : int array;
  recompute_count : int array;
  mutable occupancy : int;
  mutable peak : int;
  mutable loads : int;
  mutable stores : int;
  mutable computes : int;
  mutable recomputes : int;
  mutable dead_loads : int;
  mutable redundant_stores : int;
  mutable errors : int;
  zob : (Z.t * Z.t) option;
  mutable h1 : int;
  mutable h2 : int;
}

let flip st prop v =
  match st.zob with
  | None -> ()
  | Some (z1, z2) ->
    st.h1 <- st.h1 lxor Z.key z1 v ~prop;
    st.h2 <- st.h2 lxor Z.key z2 v ~prop

let init_state ?zob ~cache_size ~allow_recompute (work : W.t) =
  let n = W.n_vertices work in
  let st =
    {
      n;
      cache_size;
      allow_recompute;
      graph = W.graph work;
      is_input = W.is_input work;
      cache = Bs.create n;
      slow = Bs.create n;
      comp = Bs.create n;
      unread = Bs.create n;
      load_step = Array.make n (-1);
      last_evict = Array.make n (-1);
      recompute_count = Array.make n 0;
      occupancy = 0;
      peak = 0;
      loads = 0;
      stores = 0;
      computes = 0;
      recomputes = 0;
      dead_loads = 0;
      redundant_stores = 0;
      errors = 0;
      zob;
      h1 = 0;
      h2 = 0;
    }
  in
  Array.iter
    (fun v ->
      Bs.add st.slow v;
      flip st p_slow v)
    (W.inputs work);
  st

let at step v = Dg.Step { step; vertex = Some v }

let error st (emit : sink) ~code loc msg =
  st.errors <- st.errors + 1;
  emit Dg.Error ~code loc msg

(* Read of a resident value: clears the unread-load mark. *)
let mark_read st v =
  if Bs.mem st.unread v then begin
    Bs.remove st.unread v;
    flip st p_unread v
  end

let insert st emit step v ~by_load =
  if st.occupancy >= st.cache_size then
    error st emit ~code:"cache-overflow" (at step v)
      (Printf.sprintf
         "%s of vertex %d overflows fast memory (occupancy %d = M)"
         (if by_load then "load" else "compute")
         v st.occupancy);
  Bs.add st.cache v;
  flip st p_cache v;
  st.occupancy <- st.occupancy + 1;
  if st.occupancy > st.peak then st.peak <- st.occupancy;
  if by_load then begin
    st.load_step.(v) <- step;
    Bs.add st.unread v;
    flip st p_unread v
  end
  else st.load_step.(v) <- -1

let flag_if_dead_load st emit step v =
  if Bs.mem st.unread v then begin
    st.dead_loads <- st.dead_loads + 1;
    let l = st.load_step.(v) in
    if step >= 0 then
      emit Dg.Lint ~code:"dead-load" (at l v)
        (Printf.sprintf
           "vertex %d loaded at step %d is evicted at step %d without ever \
            being read"
           v l step)
    else
      emit Dg.Lint ~code:"dead-load" (at l v)
        (Printf.sprintf "vertex %d loaded at step %d is never read" v l)
  end

(* Every operand of the compute of [v] at step [t] must be resident. *)
let rec read_operands st emit t v = function
  | [] -> ()
  | p :: rest ->
    if Bs.mem st.cache p then mark_read st p
    else if Bs.mem st.comp p || st.is_input p then
      error st emit ~code:"operand-missing" (at t v)
        (Printf.sprintf "compute of vertex %d: operand %d not resident%s" v p
           (if st.last_evict.(p) >= 0 then
              Printf.sprintf " (evicted at step %d)" st.last_evict.(p)
            else if st.is_input p then " (input never loaded)"
            else " (never loaded)"))
    else
      error st emit ~code:"use-before-compute" (at t v)
        (Printf.sprintf "compute of vertex %d: operand %d has never been computed" v p);
    read_operands st emit t v rest

(* One event, given as its packed code. *)
let step st emit t code =
  let v = Tr.vertex code in
  if v < 0 || v >= st.n then
    error st emit ~code:"bad-vertex" (at t v)
      (Printf.sprintf "event references vertex %d outside [0, %d)" v st.n)
  else
    match Tr.kind code with
    | `Load ->
      if not (Bs.mem st.slow v) then
        error st emit ~code:"load-absent" (at t v)
          (Printf.sprintf "load of vertex %d: value not in slow memory%s" v
             (if Bs.mem st.comp v then " (computed but never stored)"
              else if st.is_input v then ""
              else " (never computed or stored)"));
      if Bs.mem st.cache v then
        error st emit ~code:"double-load" (at t v)
          (Printf.sprintf
             "load of vertex %d: value already resident in fast memory" v)
      else insert st emit t v ~by_load:true;
      st.loads <- st.loads + 1
    | `Store ->
      if not (Bs.mem st.cache v) then
        error st emit ~code:"store-absent" (at t v)
          (Printf.sprintf
             "store of vertex %d: value not resident in fast memory" v)
      else begin
        if Bs.mem st.slow v then begin
          st.redundant_stores <- st.redundant_stores + 1;
          emit Dg.Lint ~code:"redundant-store" (at t v)
            (Printf.sprintf
               "store of vertex %d: value already in slow memory (values are \
                immutable — this I/O is wasted)"
               v)
        end;
        mark_read st v
      end;
      if not (Bs.mem st.slow v) then begin
        Bs.add st.slow v;
        flip st p_slow v
      end;
      st.stores <- st.stores + 1
    | `Evict ->
      if not (Bs.mem st.cache v) then
        error st emit ~code:"evict-absent" (at t v)
          (Printf.sprintf
             "evict of vertex %d: value not resident in fast memory" v)
      else begin
        flag_if_dead_load st emit t v;
        mark_read st v;
        Bs.remove st.cache v;
        flip st p_cache v;
        st.occupancy <- st.occupancy - 1;
        st.last_evict.(v) <- t
      end
    | `Compute ->
      if st.is_input v then
        error st emit ~code:"compute-input" (at t v)
          (Printf.sprintf "compute of vertex %d: inputs are not computable" v);
      if Bs.mem st.comp v && not st.allow_recompute then
        error st emit ~code:"recompute-disabled" (at t v)
          (Printf.sprintf
             "compute of vertex %d: already computed and recomputation is \
              disabled"
             v);
      read_operands st emit t v (D.in_neighbors st.graph v);
      if not (Bs.mem st.cache v) then insert st emit t v ~by_load:false
      else begin
        (* redefined in place by the compute: the copy is no longer a
           load, so it can no longer be a dead load *)
        st.load_step.(v) <- -1;
        mark_read st v
      end;
      if Bs.mem st.comp v then begin
        st.recompute_count.(v) <- st.recompute_count.(v) + 1;
        st.recomputes <- st.recomputes + 1
      end
      else begin
        Bs.add st.comp v;
        flip st p_comp v
      end;
      st.computes <- st.computes + 1

(* Final-state obligations: every output computed and in slow memory;
   loads still resident at trace end that were never read. *)
let finish st emit (work : W.t) =
  Array.iter
    (fun v ->
      if not (st.is_input v) then begin
        if not (Bs.mem st.comp v) then
          error st emit ~code:"output-not-computed" (Dg.Vertex v)
            (Printf.sprintf "output vertex %d is never computed" v)
        else if not (Bs.mem st.slow v) then
          error st emit ~code:"missing-final-store" (Dg.Vertex v)
            (Printf.sprintf
               "output vertex %d computed but never stored to slow memory" v)
      end)
    (W.outputs work);
  for v = 0 to st.n - 1 do
    if Bs.mem st.cache v then flag_if_dead_load st emit (-1) v
  done

let counters st =
  {
    Tr.loads = st.loads;
    stores = st.stores;
    computes = st.computes;
    recomputes = st.recomputes;
  }

(* --- the full reporting pass --- *)

let check ~cache_size ?(allow_recompute = true) (work : W.t) (trace : Tr.t) =
  let c = Dg.Collector.create ~pass ~title:"trace check" in
  let emit sev ~code loc msg = Dg.Collector.add c sev ~code loc msg in
  let st = init_state ~cache_size ~allow_recompute work in
  for t = 0 to Tr.length trace - 1 do
    step st emit t (Tr.code trace t)
  done;
  finish st emit work;
  let recomputed = ref [] in
  for v = st.n - 1 downto 0 do
    if st.recompute_count.(v) > 0 then
      recomputed := (v, st.recompute_count.(v)) :: !recomputed
  done;
  (match !recomputed with
  | [] -> ()
  | l ->
    let worst_v, worst_k =
      List.fold_left
        (fun (bv, bk) (v, k) -> if k > bk then (v, k) else (bv, bk))
        (-1, 0) l
    in
    emit Dg.Info ~code:"recomputation" Dg.Global
      (Printf.sprintf
         "%d recomputation event(s) across %d vertex(es); most recomputed: \
          vertex %d (%d extra time(s))"
         st.recomputes (List.length l) worst_v worst_k));
  {
    report = Dg.Collector.report c;
    counters = counters st;
    recomputed = !recomputed;
    dead_loads = st.dead_loads;
    redundant_stores = st.redundant_stores;
    peak_occupancy = st.peak;
  }

let clean ~cache_size ?allow_recompute work trace =
  Dg.is_clean (check ~cache_size ?allow_recompute work trace).report

(* --- the incremental oracle --- *)

type verdict = {
  v_counters : Tr.counters;
  v_errors : int;
  v_dead_loads : int;
  v_redundant_stores : int;
  v_peak_occupancy : int;
  reused_prefix : int;
  replayed : int;
  reused_suffix : int;
}

type ckpt = { k_cache : Bs.t; k_slow : Bs.t; k_comp : Bs.t; k_unread : Bs.t }

type cache = {
  c_cache_size : int;
  c_allow_recompute : bool;
  c_n : int;
  trace : Tr.t;
  (* cumulative engine state after k events, k = 0..T *)
  c_loads : int array;
  c_stores : int array;
  c_computes : int array;
  c_recomputes : int array;
  c_errors : int array;
  c_dead : int array;
  c_redundant : int array;
  c_occ : int array;
  c_peak : int array;
  h1s : int array;
  h2s : int array;
  suf_peak : int array;  (* suf_peak.(k) = max occupancy over events k..T *)
  k_every : int;
  ckpts : ckpt array;  (* bitset snapshots after j * k_every events *)
  zob : Z.t * Z.t;
  end_errors : int;  (* contribution of the final-obligation sweep *)
  end_dead : int;
  total : verdict;
}

let snapshot st =
  {
    k_cache = Bs.copy st.cache;
    k_slow = Bs.copy st.slow;
    k_comp = Bs.copy st.comp;
    k_unread = Bs.copy st.unread;
  }

(* The key tables are derived from fixed coordinates, so every process
   (and every check_cached call at the same n) hashes identically. *)
let zobrist_pair n =
  ( Z.create ~seed:(Fmm_util.Prng.derive ~seed:0x7ab1e [ n; 1 ]) ~n ~props:4,
    Z.create ~seed:(Fmm_util.Prng.derive ~seed:0x7ab1e [ n; 2 ]) ~n ~props:4 )

let check_cached ~cache_size ?(allow_recompute = true) (work : W.t)
    (trace : Tr.t) =
  let t_len = Tr.length trace in
  let n = W.n_vertices work in
  let zob = zobrist_pair n in
  let st = init_state ~zob ~cache_size ~allow_recompute work in
  let mk () = Array.make (t_len + 1) 0 in
  let c_loads = mk () and c_stores = mk () in
  let c_computes = mk () and c_recomputes = mk () in
  let c_errors = mk () and c_dead = mk () and c_redundant = mk () in
  let c_occ = mk () and c_peak = mk () in
  let h1s = mk () and h2s = mk () in
  let k_every = max 32 (t_len / 64) in
  let ckpts = Array.make ((t_len / k_every) + 1) (snapshot st) in
  let record k =
    c_loads.(k) <- st.loads;
    c_stores.(k) <- st.stores;
    c_computes.(k) <- st.computes;
    c_recomputes.(k) <- st.recomputes;
    c_errors.(k) <- st.errors;
    c_dead.(k) <- st.dead_loads;
    c_redundant.(k) <- st.redundant_stores;
    c_occ.(k) <- st.occupancy;
    c_peak.(k) <- st.peak;
    h1s.(k) <- st.h1;
    h2s.(k) <- st.h2;
    if k mod k_every = 0 && k > 0 then ckpts.(k / k_every) <- snapshot st
  in
  record 0;
  for t = 0 to t_len - 1 do
    step st silent t (Tr.code trace t);
    record (t + 1)
  done;
  let errors_before = st.errors and dead_before = st.dead_loads in
  finish st silent work;
  let end_errors = st.errors - errors_before in
  let end_dead = st.dead_loads - dead_before in
  let total =
    {
      v_counters = counters st;
      v_errors = st.errors;
      v_dead_loads = st.dead_loads;
      v_redundant_stores = st.redundant_stores;
      v_peak_occupancy = st.peak;
      reused_prefix = 0;
      replayed = t_len;
      reused_suffix = 0;
    }
  in
  let suf_peak = Array.make (t_len + 1) 0 in
  suf_peak.(t_len) <- c_occ.(t_len);
  for k = t_len - 1 downto 0 do
    suf_peak.(k) <- max c_occ.(k) suf_peak.(k + 1)
  done;
  ( total,
    {
      c_cache_size = cache_size;
      c_allow_recompute = allow_recompute;
      c_n = n;
      trace;
      c_loads;
      c_stores;
      c_computes;
      c_recomputes;
      c_errors;
      c_dead;
      c_redundant;
      c_occ;
      c_peak;
      h1s;
      h2s;
      suf_peak;
      k_every;
      ckpts;
      zob;
      end_errors;
      end_dead;
      total;
    } )

let restore base (work : W.t) k =
  let st =
    init_state ~zob:base.zob ~cache_size:base.c_cache_size
      ~allow_recompute:base.c_allow_recompute work
  in
  let ck = base.ckpts.(k / base.k_every) in
  Bs.blit ~src:ck.k_cache ~dst:st.cache;
  Bs.blit ~src:ck.k_slow ~dst:st.slow;
  Bs.blit ~src:ck.k_comp ~dst:st.comp;
  Bs.blit ~src:ck.k_unread ~dst:st.unread;
  st.occupancy <- base.c_occ.(k);
  st.peak <- base.c_peak.(k);
  st.loads <- base.c_loads.(k);
  st.stores <- base.c_stores.(k);
  st.computes <- base.c_computes.(k);
  st.recomputes <- base.c_recomputes.(k);
  st.errors <- base.c_errors.(k);
  st.dead_loads <- base.c_dead.(k);
  st.redundant_stores <- base.c_redundant.(k);
  st.h1 <- base.h1s.(k);
  st.h2 <- base.h2s.(k);
  st

let check_delta ~base (work : W.t) (trace : Tr.t) =
  if W.n_vertices work <> base.c_n then
    invalid_arg "Trace_check.check_delta: workload does not match the base";
  let code = Tr.code and old = base.trace in
  let t_len = Tr.length old and t_len' = Tr.length trace in
  let lim = min t_len t_len' in
  (* longest common prefix / suffix of the two event sequences *)
  let d = ref 0 in
  while !d < lim && (code trace !d : int) = code old !d do
    incr d
  done;
  let d = !d in
  let cs = ref 0 in
  while !cs < lim && (code trace (t_len' - 1 - !cs) : int) = code old (t_len - 1 - !cs) do
    incr cs
  done;
  let cs = !cs in
  let start = d / base.k_every * base.k_every in
  let st = restore base work start in
  let t = ref start in
  let converged = ref (-1) in
  while !converged < 0 && !t < t_len' do
    let remaining = t_len' - !t in
    (if !t >= d && remaining <= cs then begin
       (* the tail of trace' equals the tail of the base; if the
          hashed abstract state matches the base's at the aligned
          position, the rest of the run is the memoized suffix *)
       let q = t_len - remaining in
       if
         st.h1 = base.h1s.(q)
         && st.h2 = base.h2s.(q)
         && st.occupancy = base.c_occ.(q)
       then converged := q
     end);
    if !converged < 0 then begin
      step st silent !t (code trace !t);
      incr t
    end
  done;
  if !converged >= 0 then begin
    let q = !converged in
    let splice cum now = now + (cum.(t_len) - cum.(q)) in
    {
      v_counters =
        {
          Tr.loads = splice base.c_loads st.loads;
          stores = splice base.c_stores st.stores;
          computes = splice base.c_computes st.computes;
          recomputes = splice base.c_recomputes st.recomputes;
        };
      v_errors = splice base.c_errors st.errors + base.end_errors;
      v_dead_loads = splice base.c_dead st.dead_loads + base.end_dead;
      v_redundant_stores = splice base.c_redundant st.redundant_stores;
      v_peak_occupancy = max st.peak base.suf_peak.(q);
      reused_prefix = start;
      replayed = !t - start;
      reused_suffix = t_len' - !t;
    }
  end
  else begin
    finish st silent work;
    {
      v_counters = counters st;
      v_errors = st.errors;
      v_dead_loads = st.dead_loads;
      v_redundant_stores = st.redundant_stores;
      v_peak_occupancy = st.peak;
      reused_prefix = start;
      replayed = t_len' - start;
      reused_suffix = 0;
    }
  end

let cache_verdict base = base.total
let cache_trace_length base = Tr.length base.trace
