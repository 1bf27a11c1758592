(* Schedulers: turn a compute order into a legal trace for the
   two-level machine, under two opposite policies for values that fall
   out of cache:

   - [run_lru]: spill. A value still needed later is written back to
     slow memory before eviction and re-loaded on demand. No vertex is
     ever computed twice (the classical no-recomputation execution).

   - [run_rematerialize]: recompute. Intermediates are never written to
     slow memory; only CDAG outputs are stored. A missing operand is
     recursively recomputed from whatever is available (ultimately the
     inputs, which can always be re-loaded). This trades arithmetic for
     I/O as aggressively as possible — the strategy whose futility for
     fast MM is the paper's headline (Theorem 1.1 holds regardless of
     recomputation).

   [run_hybrid] mixes the two per value, and [run_lru] is [run_hybrid]
   without recomputation. Every policy runs on one cache core over a
   [Workload] view: residency and pinning are bitsets (V/8 bytes), the
   recency order is two intrusive lists holding only resident values,
   and a value's remaining uses are counted from the view's successors
   and their order positions — so the same code streams the ascending
   order of an implicit CDAG at n = 256 without O(V)-word state. All
   traces replay through Cache_machine, which is how the tests
   guarantee the schedulers only ever emit legal programs. *)

module W = Workload
module Bits = Fmm_util.Bitset

type result = {
  trace : Trace.t; (* in execution order *)
  counters : Trace.counters;
}

exception Cache_too_small of string

(* --- recency: intrusive doubly-linked lists over resident values ---

   Cyclic sentinels: [s.next] is the most recent node, [s.prev] the
   least recent. A resident value's node lives on exactly one list: the
   live list, ordered by touch, or the dead list (values past their
   last use — preferred victims), kept sorted by last touch too, so
   both tails are the least-recently-touched candidates. Evicted nodes
   are recycled through a free stack, so a run allocates at most
   cache_size + 1 of them: churning through millions of short-lived
   nodes instead left enough promoted garbage to raise the peak heap of
   recompute-heavy runs by a third. *)

type node = { mutable v : int; mutable time : int; mutable prev : node; mutable next : node }

type recency = {
  live : node;
  dead : node;
  free : node; (* [free.next] chains the recycled nodes *)
  nodes : (int, node) Hashtbl.t; (* resident values only *)
  mutable clock : int;
}

let sentinel () =
  let rec s = { v = -1; time = 0; prev = s; next = s } in
  s

let unlink nd =
  nd.prev.next <- nd.next;
  nd.next.prev <- nd.prev

let insert_before at nd =
  nd.next <- at;
  nd.prev <- at.prev;
  at.prev.next <- nd;
  at.prev <- nd

let tick r =
  r.clock <- r.clock + 1;
  r.clock

let admit r v =
  let nd =
    if r.free.next == r.free then { v; time = 0; prev = r.live; next = r.live }
    else begin
      let nd = r.free.next in
      r.free.next <- nd.next;
      nd.v <- v;
      nd
    end
  in
  nd.time <- tick r;
  insert_before r.live.next nd;
  Hashtbl.add r.nodes v nd

(* A dead value that is used again (hybrid recomputation re-demands
   it) is live for that consumer: touching it moves it back. *)
let touch r v =
  let nd = Hashtbl.find r.nodes v in
  unlink nd;
  nd.time <- tick r;
  insert_before r.live.next nd

(* Dead residents are preferred victims; the list stays sorted by last
   touch (a value usually dies in the step that touched it last, so the
   walk stops at the head). *)
let mark_dead r v =
  let nd = Hashtbl.find r.nodes v in
  unlink nd;
  let at = ref r.dead.next in
  while !at != r.dead && !at.time > nd.time do
    at := !at.next
  done;
  insert_before !at nd

let forget r v =
  let nd = Hashtbl.find r.nodes v in
  unlink nd;
  Hashtbl.remove r.nodes v;
  nd.next <- r.free.next;
  r.free.next <- nd

(* Least-recently-touched unpinned dead resident when one exists
   (evicting it can never cost a reload), else the least-recently-
   touched unpinned live resident; -1 when everything is pinned. *)
let lru_victim r ~pinned =
  let rec walk s nd = if nd == s then -1 else if Bits.mem pinned nd.v then walk s nd.prev else nd.v in
  let v = walk r.dead r.dead.prev in
  if v >= 0 then v else walk r.live r.live.prev

(* --- the cache core: residency, counters, event emission --- *)

type core = {
  work : W.t;
  cache_size : int;
  emit : int -> unit; (* a packed Trace code *)
  in_cache : Bits.t;
  in_slow : Bits.t;
  pinned : Bits.t;
  ever_resident : Bits.t; (* loaded or computed at some point *)
  recency : recency;
  mutable occupancy : int;
  mutable loads : int;
  mutable stores : int;
  mutable computes : int;
  mutable recomputes : int;
  mutable reloads : int; (* loads of a value that was resident before *)
  mutable spill_stores : int; (* stores of non-output victims *)
  mutable ops : int array; (* operand stack: one frame per pending compute *)
  mutable sp : int;
}

let make_core work ~cache_size ~emit =
  let n = W.n_vertices work in
  let core =
    {
      work;
      cache_size;
      emit;
      in_cache = Bits.create n;
      in_slow = Bits.create n;
      pinned = Bits.create n;
      ever_resident = Bits.create n;
      recency =
        {
          live = sentinel ();
          dead = sentinel ();
          free = sentinel ();
          nodes = Hashtbl.create 1024;
          clock = 0;
        };
      occupancy = 0;
      loads = 0;
      stores = 0;
      computes = 0;
      recomputes = 0;
      reloads = 0;
      spill_stores = 0;
      ops = Array.make 64 0;
      sp = 0;
    }
  in
  Array.iter (Bits.add core.in_slow) (W.inputs work);
  core

let too_small core =
  raise
    (Cache_too_small
       (Printf.sprintf "Schedulers: cache of %d words too small (everything pinned)"
          core.cache_size))

let counters core =
  {
    Trace.loads = core.loads;
    stores = core.stores;
    computes = core.computes;
    recomputes = core.recomputes;
  }

(* Push [v]'s operands as a new frame; they occupy [ops.(base ..
   sp-1)] until the caller resets [sp] to the returned base. *)
let push_operands core v =
  let base = core.sp in
  W.iter_preds core.work v ~f:(fun p ->
      if core.sp = Array.length core.ops then begin
        let bigger = Array.make (2 * core.sp) 0 in
        Array.blit core.ops 0 bigger 0 core.sp;
        core.ops <- bigger
      end;
      core.ops.(core.sp) <- p;
      core.sp <- core.sp + 1);
  base

let store core v =
  core.emit (Trace.store v);
  Bits.add core.in_slow v;
  core.stores <- core.stores + 1

let evict core v =
  core.emit (Trace.evict v);
  Bits.remove core.in_cache v;
  core.occupancy <- core.occupancy - 1;
  forget core.recency v

let make_resident core v =
  Bits.add core.in_cache v;
  Bits.add core.ever_resident v;
  core.occupancy <- core.occupancy + 1;
  admit core.recency v

(* Evict the LRU victim (dead first); [writeback v] decides whether it
   must be stored first. *)
let evict_one core ~writeback =
  let v = lru_victim core.recency ~pinned:core.pinned in
  if v < 0 then too_small core;
  if writeback v && not (Bits.mem core.in_slow v) then begin
    store core v;
    if not (W.is_output core.work v) then core.spill_stores <- core.spill_stores + 1
  end;
  evict core v

let ensure_room core ~writeback =
  while core.occupancy >= core.cache_size do
    evict_one core ~writeback
  done

let fetch core v =
  core.emit (Trace.load v);
  if Bits.mem core.ever_resident v then core.reloads <- core.reloads + 1;
  core.loads <- core.loads + 1;
  make_resident core v

(* A non-input value is resident only after a compute (a load needs a
   store, which needs a compute), so [ever_resident] marks the values
   computed before. *)
let compute core v =
  core.emit (Trace.compute v);
  if Bits.mem core.ever_resident v then core.recomputes <- core.recomputes + 1;
  core.computes <- core.computes + 1;
  make_resident core v

(* Flush outputs still dirty in cache. *)
let flush_outputs core =
  Array.iter
    (fun v -> if Bits.mem core.in_cache v && not (Bits.mem core.in_slow v) then store core v)
    (W.outputs core.work)

(* The flop cap is charged BEFORE each compute, deep inside the
   recursive descent: the run aborts at the exact step that would
   exceed the budget, so a failed run never performs more than
   [max_flops] computations (the cap cannot be overshot while a
   recomputation subtree drains). *)
let flop_cap ~who max_flops =
  let flops = ref 0 in
  fun v ->
    if !flops >= max_flops then
      failwith
        (Printf.sprintf "%s: flop budget exceeded (cap %d) at compute of vertex %d" who
           max_flops v);
    incr flops

(* What to do with a value that is not resident. *)
type policy = {
  writeback : int -> bool; (* must an evicted value be stored first? *)
  reload : int -> bool; (* fetch it from slow memory (else rebuild it)? *)
  charge : int -> unit; (* flop budget, before each compute *)
  store_outputs : bool; (* store each output as soon as it is computed *)
}

(* Make [v] resident: touch it, reload it, or rebuild it recursively
   from its operands (re-pinning them: deep recursion may have
   unpinned or evicted one). A rebuilt value is left pinned. *)
let rec materialize core pol v =
  if Bits.mem core.in_cache v then touch core.recency v
  else if pol.reload v then begin
    Bits.add core.pinned v;
    ensure_room core ~writeback:pol.writeback;
    fetch core v
  end
  else begin
    let base = push_operands core v in
    let top = core.sp in
    for i = base to top - 1 do
      materialize core pol core.ops.(i)
    done;
    for i = base to top - 1 do
      let p = core.ops.(i) in
      if not (Bits.mem core.in_cache p) then materialize core pol p;
      Bits.add core.pinned p
    done;
    pol.charge v;
    ensure_room core ~writeback:pol.writeback;
    compute core v;
    Bits.add core.pinned v;
    for i = base to top - 1 do
      Bits.remove core.pinned core.ops.(i)
    done;
    core.sp <- base;
    if pol.store_outputs && W.is_output core.work v && not (Bits.mem core.in_slow v)
    then store core v
  end

(* Does [p] already occur in the frame [ops.(j .. i-1)]? (A parallel
   edge lists an operand twice; its death is handled once.) *)
let rec seen_in_frame ops j i p = j < i && (ops.(j) = p || seen_in_frame ops (j + 1) i p)

let collect run =
  let b = Trace.builder () in
  let counters = run (Trace.add b) in
  { trace = Trace.freeze b; counters }

(* --- spill / hybrid execution --- *)

(* Execute an order (a valid topological order of non-input vertices,
   enumerated by [iter_order] as (step, vertex) with [pos v] its
   position key) with dead-first LRU victim selection. Evicting a live
   value spills it unless [recompute] says to drop it and rebuild it
   when next needed; without [recompute] (spill only) a missing operand
   is an error and the run enforces Dataflow's spill-free bound: when
   [cache_size >= MAXLIVE(order)] the trace must contain zero spills
   (no reload, no store of a non-output). A value's remaining
   first-time uses are its successors at positions from the current
   step on. *)
let run_spill ~who ?recompute ~max_flops work ~cache_size ~emit ~pos iter_order =
  let core = make_core work ~cache_size ~emit in
  let spill_only = Option.is_none recompute in
  let is_output = W.is_output work and is_input = W.is_input work in
  let from = ref 0 and count = ref 0 in
  let count_use s = if pos s >= !from then incr count in
  let uses_from v from_ =
    from := from_;
    count := 0;
    W.iter_succs work v ~f:count_use;
    !count
  in
  let cur = ref 0 in
  (* A victim is written back when it is an output (dropping one only
     defers a store it must pay anyway) or when a first-time use
     remains and the policy says spill. *)
  let writeback =
    match recompute with
    | None -> fun v -> is_output v || uses_from v !cur > 0
    | Some r -> fun v -> is_output v || ((not (r v)) && uses_from v !cur > 0)
  in
  let pol =
    {
      writeback;
      reload = Bits.mem core.in_slow;
      charge = flop_cap ~who max_flops;
      store_outputs = false;
    }
  in
  (* Live-set size per Dataflow.order_liveness: an input is live from
     its first use, a computed value from its definition; both die at
     their last use (an unused value dies at its definition step). *)
  let live = ref 0 and maxlive = ref 0 in
  iter_order (fun step v ->
      cur := pos v;
      if Bits.mem core.ever_resident v then
        failwith (Printf.sprintf "%s: order step %d recomputes vertex %d" who step v);
      let base = push_operands core v in
      let top = core.sp in
      (* Pin operands so making room for one cannot evict another. *)
      for i = base to top - 1 do
        let p = core.ops.(i) in
        if Bits.mem core.in_cache p then touch core.recency p
        else begin
          if spill_only && not (Bits.mem core.in_slow p) then
            failwith
              (Printf.sprintf "%s: order step %d (vertex %d): operand %d lost" who step v p);
          if is_input p && not (Bits.mem core.ever_resident p) then incr live;
          materialize core pol p
        end;
        Bits.add core.pinned p
      done;
      pol.charge v;
      ensure_room core ~writeback;
      compute core v;
      incr live;
      if !live > !maxlive then maxlive := !live;
      for i = base to top - 1 do
        let p = core.ops.(i) in
        Bits.remove core.pinned p;
        if (not (seen_in_frame core.ops base i p)) && uses_from p (!cur + 1) = 0 then begin
          decr live;
          if Bits.mem core.in_cache p then
            (* Unstored outputs stay resident but join the preferred-
               victim pool: evicting one only pays its one mandatory
               store early. Other dead values leave for free; a later
               recompute that re-demands one rebuilds it. *)
            if is_output p then mark_dead core.recency p else evict core p
        end
      done;
      core.sp <- base;
      if uses_from v (!cur + 1) = 0 then begin
        decr live;
        mark_dead core.recency v
      end);
  flush_outputs core;
  if
    spill_only && cache_size >= !maxlive
    && (core.reloads > 0 || core.spill_stores > 0)
  then
    failwith
      (Printf.sprintf
         "%s: spill-free invariant violated: cache_size=%d >= maxlive=%d yet \
          reloads=%d spill_stores=%d"
         who cache_size !maxlive core.reloads core.spill_stores);
  counters core

(* Position keys of a list order; vertices outside it never arrive. *)
let list_order work order =
  let pos = Array.make (W.n_vertices work) max_int in
  List.iteri (fun i v -> pos.(v) <- i) order;
  ((fun v -> pos.(v)), fun f -> List.iteri f order)

let run_hybrid ?(max_flops = 200_000_000) work ~cache_size ~recompute order =
  let pos, iter_order = list_order work order in
  collect (fun emit ->
      run_spill ~who:"Schedulers.run_hybrid" ~recompute ~max_flops work ~cache_size ~emit
        ~pos iter_order)

let run_lru work ~cache_size order =
  let pos, iter_order = list_order work order in
  collect (fun emit ->
      run_spill ~who:"Schedulers.run_lru" ~max_flops:max_int work ~cache_size ~emit ~pos
        iter_order)

(* The ascending id order needs no position table: an id is its own
   position key. *)
let stream_lru work ~cache_size ~on_event =
  run_spill ~who:"Schedulers.run_lru" ~max_flops:max_int work ~cache_size ~emit:on_event
    ~pos:Fun.id (fun f -> W.iter_ascending_order work ~f)

(* --- Belady / offline-optimal replacement --- *)

(** Execute [order] with Belady's MIN policy: given the whole future
    reference sequence, evict the resident value whose next use is
    farthest away (never-used-again values first). Offline-optimal for
    the replacement decision at a fixed compute order, so its I/O lower
    bounds every demand-paging execution of that order — the tightest
    schedule the no-recomputation machine can extract from an order
    without reordering. *)
let run_belady work ~cache_size order =
  collect (fun emit ->
      let core = make_core work ~cache_size ~emit in
      let is_output = W.is_output work in
      (* Reference positions per vertex, flat: vertex v is referenced
         at step i when it is an operand of order[i] (and at its own
         compute step); its steps are [refs.(first.(v) ..
         first.(v+1) - 1)], ascending. [cursor.(v)] skips the ones
         already in the past. *)
      let n = W.n_vertices work in
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
      let step = ref 0 in
      let record v =
        refs.(cursor.(v)) <- !step;
        cursor.(v) <- cursor.(v) + 1
      in
      List.iteri
        (fun i v ->
          step := i;
          record v;
          W.iter_preds work v ~f:record)
        order;
      Array.blit first 0 cursor 0 n;
      (* index of v's first reference at or after step [now] *)
      let refs_from v now =
        let k = ref cursor.(v) and stop = first.(v + 1) in
        while !k < stop && refs.(!k) < now do
          incr k
        done;
        cursor.(v) <- !k;
        !k
      in
      let next_use_after v now =
        let k = ref (refs_from v now) and stop = first.(v + 1) in
        while !k < stop && refs.(!k) <= now do
          incr k
        done;
        if !k < stop then refs.(!k) else max_int
      in
      (* a value with a use at or after [now] still has a consumer to
         serve, so evicting it must write it back *)
      let writeback now v = is_output v || refs_from v now < first.(v + 1) in
      (* Belady eviction: scan the residents (at most cache_size
         entries, NOT the whole vertex set, which matters at n = 64
         where the CDAG has ~10^6 vertices) for the farthest next use.
         Ties on the next-use distance are broken toward a CLEAN victim
         (already in slow memory, or dead so never written back):
         evicting it is free, while a dirty co-leader would cost a Store
         the clean choice avoids. Within the same cleanliness class the
         smallest vertex id wins; every clause is scan-order-
         independent, so the policy stays deterministic. The scan walks
         the live list, then the dead one. *)
      let r = core.recency in
      let evict_belady now =
        let victim = ref (-1) and victim_next = ref (-1) in
        let victim_dirty = ref false in
        let nd = ref (if r.live.next == r.live then r.dead.next else r.live.next) in
        while !nd != r.dead do
          let v = !nd.v in
          if not (Bits.mem core.pinned v) then begin
            let nu = next_use_after v now in
            (* a nearer next use loses whatever its cleanliness *)
            if nu >= !victim_next then begin
              let dirty = (not (Bits.mem core.in_slow v)) && writeback now v in
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
          end;
          nd := if !nd.next == r.live then r.dead.next else !nd.next
        done;
        if !victim < 0 then too_small core;
        let v = !victim in
        if writeback now v && not (Bits.mem core.in_slow v) then store core v;
        evict core v
      in
      let ensure_room_belady now =
        while core.occupancy >= core.cache_size do
          evict_belady now
        done
      in
      List.iteri
        (fun now v ->
          let base = push_operands core v in
          let top = core.sp in
          for i = base to top - 1 do
            let p = core.ops.(i) in
            if not (Bits.mem core.in_cache p) then begin
              if not (Bits.mem core.in_slow p) then
                failwith
                  (Printf.sprintf
                     "Schedulers.run_belady: order step %d (vertex %d): operand %d lost" now v
                     p);
              Bits.add core.pinned p;
              ensure_room_belady now;
              fetch core p
            end
            else Bits.add core.pinned p
          done;
          ensure_room_belady now;
          compute core v;
          for i = base to top - 1 do
            let p = core.ops.(i) in
            Bits.remove core.pinned p;
            if
              next_use_after p now = max_int
              && (not (is_output p))
              && Bits.mem core.in_cache p
            then evict core p
          done;
          core.sp <- base)
        order;
      flush_outputs core;
      counters core)

(* --- rematerializing execution --- *)

(** Execute with recomputation instead of spilling: only outputs are
    ever stored (at their first compute); a missing operand is
    recomputed recursively (inputs are re-loaded). [max_flops] aborts
    pathological blow-ups. *)
let run_rematerialize ?(max_flops = 200_000_000) work ~cache_size order =
  collect (fun emit ->
      let core = make_core work ~cache_size ~emit in
      (* Never write back: intermediates are recomputable, inputs are
         already in slow memory, outputs are stored at first compute. *)
      let pol =
        {
          writeback = (fun _ -> false);
          reload = W.is_input work;
          charge = flop_cap ~who:"Schedulers.run_rematerialize" max_flops;
          store_outputs = true;
        }
      in
      List.iter
        (fun v ->
          materialize core pol v;
          Bits.remove core.pinned v)
        order;
      counters core)
