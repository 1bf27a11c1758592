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
   without recomputation; [run_belady] replaces by farthest next use.
   Every policy runs on one cache core over a [Workload] view:
   residency and pinning are bitsets (V/8 bytes), and each resident
   value holds a slot of a table of min(M, V) slots that keeps its
   recency links and a key computed from the view's successors and
   their order positions — so the same code streams the ascending
   order of an implicit CDAG at n = 256 without O(V)-word state, and
   allocates nothing per event. All traces replay through
   Cache_machine, which is how the tests guarantee the schedulers only
   ever emit legal programs. *)

module W = Workload
module Bits = Fmm_util.Bitset
module Index = Fmm_util.Int_table

type result = {
  trace : Trace.t; (* in execution order *)
  counters : Trace.counters;
}

exception Cache_too_small of string

(* --- the slot table: recency and keys of the resident values ---

   Each resident value holds one of S = min(cache_size, V) slots, and
   slots S and S + 1 are the sentinels heading the live and the dead
   list. A slot keeps the value's vertex, its last touch, its two
   recency links and its key in flat int arrays; free slots chain
   through [next], and an open-addressing index sized once for S values
   maps a vertex to its slot. The table is O(min(M, V)) words, however
   large the cache, and allocates nothing after its creation.

   The lists are cyclic: a sentinel's [next] is the most recent slot,
   its [prev] the least recent. A resident value's slot lives on
   exactly one list: the live list, ordered by touch, or the dead list
   (values past their last use — preferred victims), kept sorted by
   last touch too, so both tails are the least-recently-touched
   candidates.

   A key caches what a policy asks about a resident value, computed by
   one successor scan and kept until the value leaves the cache: its
   last use under LRU and hybrid, its next use and write-back flag
   under Belady. *)

type core = {
  work : W.t;
  cache_size : int;
  emit : int -> unit; (* a packed Trace code *)
  pos : int -> int; (* a vertex's position key; max_int when unscheduled *)
  in_cache : Bits.t;
  in_slow : Bits.t;
  pinned : Bits.t;
  ever_resident : Bits.t; (* loaded or computed at some point *)
  vertex : int array; (* the slot table, S + 2 entries each *)
  time : int array;
  prev : int array;
  next : int array;
  key : int array;
  index : Index.t; (* resident vertex -> slot *)
  mutable free : int; (* first free slot, -1 when none *)
  mutable clock : int;
  mutable occupancy : int;
  mutable loads : int;
  mutable stores : int;
  mutable computes : int;
  mutable recomputes : int;
  mutable reloads : int; (* loads of a value that was resident before *)
  mutable spill_stores : int; (* stores of non-output victims *)
  mutable ops : int array; (* operand stack: one frame per pending compute *)
  mutable sp : int;
  mutable after : int; (* the successor scans' bound and result *)
  mutable found : int;
  push : int -> unit; (* the callbacks, built once with the core *)
  max_pos : int -> unit;
  min_pos_after : int -> unit;
}

let[@inline] live c = Array.length c.vertex - 2
let[@inline] dead c = Array.length c.vertex - 1
let unknown = min_int (* a key not computed yet *)

let push_op c p =
  if c.sp = Array.length c.ops then begin
    let bigger = Array.make (2 * c.sp) 0 in
    Array.blit c.ops 0 bigger 0 c.sp;
    c.ops <- bigger
  end;
  c.ops.(c.sp) <- p;
  c.sp <- c.sp + 1

let max_pos c s =
  let k = c.pos s in
  if k > c.found then c.found <- k

let min_pos_after c s =
  let k = c.pos s in
  if k > c.after && k < c.found then c.found <- k

let make_core work ~cache_size ~emit ~pos =
  let n = W.n_vertices work in
  let slots = max 0 (min cache_size n) in
  let rec c =
    {
      work;
      cache_size;
      emit;
      pos;
      in_cache = Bits.create n;
      in_slow = Bits.create n;
      pinned = Bits.create n;
      ever_resident = Bits.create n;
      vertex = Array.make (slots + 2) (-1);
      time = Array.make (slots + 2) 0;
      (* free slots chain up to -1; the sentinels start as empty
         cyclic lists *)
      prev = Array.init (slots + 2) (fun s -> if s >= slots then s else -1);
      next =
        Array.init (slots + 2) (fun s ->
            if s >= slots then s else if s + 1 < slots then s + 1 else -1);
      key = Array.make (slots + 2) unknown;
      index = Index.create (slots + 1);
      free = (if slots > 0 then 0 else -1);
      clock = 0;
      occupancy = 0;
      loads = 0;
      stores = 0;
      computes = 0;
      recomputes = 0;
      reloads = 0;
      spill_stores = 0;
      ops = Array.make 64 0;
      sp = 0;
      after = 0;
      found = 0;
      push = (fun p -> push_op c p);
      max_pos = (fun s -> max_pos c s);
      min_pos_after = (fun s -> min_pos_after c s);
    }
  in
  Array.iter (Bits.add c.in_slow) (W.inputs work);
  c

let[@inline] unlink c s =
  let p = c.prev.(s) and n = c.next.(s) in
  c.next.(p) <- n;
  c.prev.(n) <- p

let[@inline] insert_before c at s =
  let p = c.prev.(at) in
  c.next.(s) <- at;
  c.prev.(s) <- p;
  c.next.(p) <- s;
  c.prev.(at) <- s

let[@inline] tick c =
  c.clock <- c.clock + 1;
  c.clock

(* The slot of a resident value; the functions below take slots. *)
let[@inline] slot c v = Index.find c.index v

(* A value enters as the most recent live one, with its key unknown. *)
let[@inline] admit c v =
  let s = c.free in
  c.free <- c.next.(s);
  c.vertex.(s) <- v;
  c.time.(s) <- tick c;
  c.key.(s) <- unknown;
  insert_before c c.next.(live c) s;
  Index.replace c.index v s;
  s

(* A dead value that is used again (hybrid recomputation re-demands
   it) is live for that consumer: touching it moves it back. *)
let[@inline] touch c s =
  unlink c s;
  c.time.(s) <- tick c;
  insert_before c c.next.(live c) s

(* Dead residents are preferred victims; the list stays sorted by last
   touch (a value usually dies in the step that touched it last, so the
   walk stops at the head). *)
let rec dead_spot c time at =
  if at <> dead c && c.time.(at) > time then dead_spot c time c.next.(at) else at

let[@inline] mark_dead c s =
  unlink c s;
  insert_before c (dead_spot c c.time.(s) c.next.(dead c)) s

let[@inline] forget c s =
  ignore (Index.take c.index c.vertex.(s));
  unlink c s;
  c.next.(s) <- c.free;
  c.free <- s

(* The least-recently-touched unpinned slot on the list headed by
   [head], walking back from slot [s]; [head] when all are pinned. *)
let rec unpinned_tail c head s =
  if s = head || not (Bits.mem c.pinned c.vertex.(s)) then s
  else unpinned_tail c head c.prev.(s)

(* Least-recently-touched unpinned dead resident when one exists
   (evicting it can never cost a reload), else the least-recently-
   touched unpinned live resident; -1 when everything is pinned. *)
let lru_victim c =
  let s = unpinned_tail c (dead c) c.prev.(dead c) in
  if s <> dead c then s
  else
    let s = unpinned_tail c (live c) c.prev.(live c) in
    if s <> live c then s else -1

(* The largest position key among [v]'s successors, -1 when it has
   none: "is [v] used at or after position [p]?" is [last_use >= p],
   and an unscheduled successor ([max_int]) is a use forever. A
   resident value keeps it in its slot, so it is scanned at most once
   per residency. *)
let scan_last_use c v =
  c.found <- -1;
  W.iter_succs c.work v ~f:c.max_pos;
  c.found

let[@inline] last_use c s =
  if c.key.(s) = unknown then c.key.(s) <- scan_last_use c c.vertex.(s);
  c.key.(s)

(* The smallest scheduled successor position after [now], [max_int]
   when none: the next step that references [v] as an operand. *)
let next_use c v now =
  c.after <- now;
  c.found <- max_int;
  W.iter_succs c.work v ~f:c.min_pos_after;
  c.found

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
let[@inline] push_operands core v =
  let base = core.sp in
  W.iter_preds core.work v ~f:core.push;
  base

let[@inline] store core v =
  core.emit (Trace.store v);
  Bits.add core.in_slow v;
  core.stores <- core.stores + 1

let[@inline] evict core s =
  let v = core.vertex.(s) in
  core.emit (Trace.evict v);
  Bits.remove core.in_cache v;
  core.occupancy <- core.occupancy - 1;
  forget core s

let[@inline] make_resident core v =
  Bits.add core.in_cache v;
  Bits.add core.ever_resident v;
  core.occupancy <- core.occupancy + 1;
  admit core v

(* Evict the LRU victim (dead first); [writeback s] decides whether the
   value in slot [s] must be stored first. *)
let evict_one core ~writeback =
  let s = lru_victim core in
  if s < 0 then too_small core;
  let v = core.vertex.(s) in
  if writeback s && not (Bits.mem core.in_slow v) then begin
    store core v;
    if not (W.is_output core.work v) then core.spill_stores <- core.spill_stores + 1
  end;
  evict core s

let ensure_room core ~writeback =
  while core.occupancy >= core.cache_size do
    evict_one core ~writeback
  done

let[@inline] fetch core v =
  core.emit (Trace.load v);
  if Bits.mem core.ever_resident v then core.reloads <- core.reloads + 1;
  core.loads <- core.loads + 1;
  make_resident core v

(* A non-input value is resident only after a compute (a load needs a
   store, which needs a compute), so [ever_resident] marks the values
   computed before. *)
let[@inline] compute core v =
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
  if Bits.mem core.in_cache v then touch core (slot core v)
  else if pol.reload v then begin
    Bits.add core.pinned v;
    ensure_room core ~writeback:pol.writeback;
    ignore (fetch core v)
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
    ignore (compute core v);
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
   (no reload, no store of a non-output). A value still has a
   first-time use when its last use is at or after the current step. *)
let run_spill ~who ?recompute ~max_flops work ~cache_size ~emit ~pos iter_order =
  let core = make_core work ~cache_size ~emit ~pos in
  let spill_only = Option.is_none recompute in
  let is_output = W.is_output work and is_input = W.is_input work in
  let cur = ref 0 in
  (* A victim is written back when it is an output (dropping one only
     defers a store it must pay anyway) or when a first-time use
     remains and the policy says spill. *)
  let writeback =
    match recompute with
    | None -> fun s -> is_output core.vertex.(s) || last_use core s >= !cur
    | Some r ->
      fun s ->
        let v = core.vertex.(s) in
        is_output v || ((not (r v)) && last_use core s >= !cur)
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
        if Bits.mem core.in_cache p then touch core (slot core p)
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
      let s = compute core v in
      incr live;
      if !live > !maxlive then maxlive := !live;
      for i = base to top - 1 do
        let p = core.ops.(i) in
        Bits.remove core.pinned p;
        if not (seen_in_frame core.ops base i p) then
          if Bits.mem core.in_cache p then begin
            let ps = slot core p in
            if last_use core ps <= !cur then begin
              decr live;
              (* Unstored outputs stay resident but join the preferred-
                 victim pool: evicting one only pays its one mandatory
                 store early. Other dead values leave for free; a later
                 recompute that re-demands one rebuilds it. *)
              if is_output p then mark_dead core ps else evict core ps
            end
          end
          else if
            (* a nested rebuild can unpin an operand pinned before it,
               which can then be evicted (hybrid at tight caches) *)
            scan_last_use core p <= !cur
          then decr live
      done;
      core.sp <- base;
      if last_use core s <= !cur then begin
        decr live;
        mark_dead core s
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

(* Belady's victim heap: a binary heap over the slots of the unpinned
   residents, the best victim on top. A slot's key packs its value's
   next use and whether evicting it is free,
   [min next never lsl 1 lor clean], so the heap orders by farthest
   next use, then clean before dirty, then by the smaller vertex id —
   the total order Belady's victim choice maximizes. [at.(s)] is slot
   [s]'s index in the heap, -1 while it is out (pinned or free). *)
type heap = { slots : int array; at : int array; mutable size : int }

let never = max_int asr 1 (* a next use beyond every position *)
let belady_key ~next ~clean = ((min next never) lsl 1) lor Bool.to_int clean
let next_of key = key asr 1
let is_clean key = key land 1 = 1

let above c a b =
  let ka = c.key.(a) and kb = c.key.(b) in
  ka > kb || (ka = kb && c.vertex.(a) < c.vertex.(b))

let place h i s =
  h.slots.(i) <- s;
  h.at.(s) <- i

let rec sift_up c h i s =
  let parent = (i - 1) / 2 in
  if i > 0 && above c s h.slots.(parent) then begin
    place h i h.slots.(parent);
    sift_up c h parent s
  end
  else place h i s

let rec sift_down c h i s =
  let l = (2 * i) + 1 in
  let child = if l + 1 < h.size && above c h.slots.(l + 1) h.slots.(l) then l + 1 else l in
  if child < h.size && above c h.slots.(child) s then begin
    place h i h.slots.(child);
    sift_down c h child s
  end
  else place h i s

(* put slot [s] at heap index [i] and restore the order around it *)
let settle c h i s =
  if i > 0 && above c s h.slots.((i - 1) / 2) then sift_up c h i s else sift_down c h i s

(* Add [s] to the heap, or move it to where its new key belongs. *)
let heap_set c h s =
  if h.at.(s) >= 0 then settle c h h.at.(s) s
  else begin
    h.size <- h.size + 1;
    sift_up c h (h.size - 1) s
  end

let heap_remove c h s =
  let i = h.at.(s) in
  if i >= 0 then begin
    h.at.(s) <- -1;
    h.size <- h.size - 1;
    if i < h.size then settle c h i h.slots.(h.size)
  end

(** Execute [order] with Belady's MIN policy: given the whole future
    reference sequence, evict the resident value whose next use is
    farthest away (never-used-again values first). Offline-optimal for
    the replacement decision at a fixed compute order, so its I/O lower
    bounds every demand-paging execution of that order — the tightest
    schedule the no-recomputation machine can extract from an order
    without reordering.

    Ties on the next use are broken toward a CLEAN victim (already in
    slow memory, or never used again and not an output, so never
    written back): evicting it is free, while a dirty co-leader would
    cost a Store the clean choice avoids. Within the same cleanliness
    class the smallest vertex id wins, so the policy is deterministic.

    A value is referenced at the steps of its scheduled successors, so
    its next use and write-back flag change only when it is
    referenced: its key is set when it is computed or fetched, reset
    for every resident operand at the start of the step that uses it,
    and reset again when the step unpins it. *)
let run_belady work ~cache_size order =
  let pos, _ = list_order work order in
  collect (fun emit ->
      let c = make_core work ~cache_size ~emit ~pos in
      let slots = Array.length c.vertex - 2 in
      let h = { slots = Array.make slots 0; at = Array.make slots (-1); size = 0 } in
      let is_output = W.is_output work in
      (* key slot [s] as referenced at step [now]: its value needs
         write-back unless it is in slow memory *)
      let key_used s now =
        let v = c.vertex.(s) in
        c.key.(s) <- belady_key ~next:(next_use c v now) ~clean:(Bits.mem c.in_slow v)
      in
      (* past its references at [now]: write-back only for an output or
         a value with a next use *)
      let key_unpinned s next =
        let v = c.vertex.(s) in
        let clean = Bits.mem c.in_slow v || not (is_output v || next < never) in
        c.key.(s) <- belady_key ~next ~clean;
        heap_set c h s
      in
      let ensure_room () =
        while c.occupancy >= c.cache_size do
          if h.size = 0 then too_small c;
          let s = h.slots.(0) in
          heap_remove c h s;
          if not (is_clean c.key.(s)) then store c c.vertex.(s);
          evict c s
        done
      in
      List.iteri
        (fun now v ->
          let base = push_operands c v in
          let top = c.sp in
          (* operands still unpinned can be evicted while an earlier one
             is fetched: key them as used now first *)
          for i = base to top - 1 do
            let p = c.ops.(i) in
            if Bits.mem c.in_cache p then begin
              let s = slot c p in
              key_used s now;
              heap_set c h s
            end
          done;
          for i = base to top - 1 do
            let p = c.ops.(i) in
            let resident = Bits.mem c.in_cache p in
            if (not resident) && not (Bits.mem c.in_slow p) then
              failwith
                (Printf.sprintf
                   "Schedulers.run_belady: order step %d (vertex %d): operand %d lost" now v p);
            Bits.add c.pinned p;
            if resident then heap_remove c h (slot c p)
            else begin
              ensure_room ();
              key_used (fetch c p) now
            end
          done;
          ensure_room ();
          key_unpinned (compute c v) (next_use c v now);
          for i = base to top - 1 do
            let p = c.ops.(i) in
            Bits.remove c.pinned p;
            if Bits.mem c.in_cache p then begin
              let s = slot c p in
              let next = next_of c.key.(s) in
              if next = never && not (is_output p) then evict c s else key_unpinned s next
            end
          done;
          c.sp <- base)
        order;
      flush_outputs c;
      counters c)

(* --- rematerializing execution --- *)

(** Execute with recomputation instead of spilling: only outputs are
    ever stored (at their first compute); a missing operand is
    recomputed recursively (inputs are re-loaded). [max_flops] aborts
    pathological blow-ups. *)
let run_rematerialize ?(max_flops = 200_000_000) work ~cache_size order =
  collect (fun emit ->
      (* no key is ever asked for, so no position is needed *)
      let core = make_core work ~cache_size ~emit ~pos:(fun _ -> max_int) in
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
