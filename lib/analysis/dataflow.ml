(* The dataflow core every static pass runs on: shared bitsets,
   a deterministic worklist fixpoint over Digraph, Zobrist state
   hashing for the incremental trace oracle, and the schedule-level
   liveness analyses (MAXLIVE, static I/O lower bound, trace
   occupancy/live peaks).

   Determinism is the design constraint that shapes everything here:
   the worklist is a flat int ring seeded in id order with dedup, the
   Zobrist tables are Prng-derived, the profiles are single passes in
   trace order, the liveness sweep's table of int keys is only probed,
   never iterated — no physical-equality hashing, identical results in
   every process and at every --jobs. *)

module W = Fmm_machine.Workload
module Tr = Fmm_machine.Trace
module D = Fmm_graph.Digraph
module Prng = Fmm_util.Prng

module Bitset = Fmm_util.Bitset
module Int_table = Fmm_util.Int_table
module Vec = Fmm_util.Vec

module Zobrist = struct
  type t = { keys : int array; props : int }

  (* 62-bit nonnegative keys so xor-accumulated hashes stay positive
     native ints on 64-bit platforms. *)
  let mask = (1 lsl 62) - 1

  let create ~seed ~n ~props =
    if n < 0 || props <= 0 then invalid_arg "Zobrist.create";
    let rng = Prng.create ~seed in
    let keys =
      Array.init (n * props) (fun _ -> Int64.to_int (Prng.next_int64 rng) land mask)
    in
    { keys; props }

  let key t v ~prop = t.keys.((v * t.props) + prop)
end

module type DOMAIN = sig
  type fact

  val equal : fact -> fact -> bool
  val join : fact -> fact -> fact
end

module Fixpoint (Dom : DOMAIN) = struct
  let solve g ~direction ~init ~transfer =
    let n = D.n_vertices g in
    let deps, succs =
      match direction with
      | `Forward -> (D.in_neighbors g, D.out_neighbors g)
      | `Backward -> (D.out_neighbors g, D.in_neighbors g)
    in
    let out = Array.init n init in
    if n > 0 then begin
      (* flat ring queue; on_queue dedup bounds residency to n *)
      let queue = Array.make n 0 in
      let on_queue = Array.make n false in
      let head = ref 0 and tail = ref 0 and filled = ref 0 in
      let push v =
        if not on_queue.(v) then begin
          on_queue.(v) <- true;
          queue.(!tail) <- v;
          tail := (!tail + 1) mod n;
          incr filled
        end
      in
      (match direction with
      | `Forward -> for v = 0 to n - 1 do push v done
      | `Backward -> for v = n - 1 downto 0 do push v done);
      while !filled > 0 do
        let v = queue.(!head) in
        head := (!head + 1) mod n;
        decr filled;
        on_queue.(v) <- false;
        let fact =
          List.fold_left (fun acc p -> Dom.join acc out.(p)) (init v) (deps v)
        in
        let fresh = transfer v fact in
        if not (Dom.equal fresh out.(v)) then begin
          out.(v) <- fresh;
          List.iter push (succs v)
        end
      done
    end;
    out
end

module Bool_fix = Fixpoint (struct
  type fact = bool

  let equal = Bool.equal
  let join = ( || )
end)

let reach_bits g seeds ~direction =
  let n = D.n_vertices g in
  let seed_set = Bitset.create n in
  List.iter
    (fun v -> if v >= 0 && v < n then Bitset.add seed_set v)
    seeds;
  let out =
    Bool_fix.solve g ~direction
      ~init:(fun v -> Bitset.mem seed_set v)
      ~transfer:(fun _ f -> f)
  in
  let bits = Bitset.create n in
  Array.iteri (fun v b -> if b then Bitset.add bits v) out;
  bits

let reachable g seeds = reach_bits g seeds ~direction:`Forward
let needed g seeds = reach_bits g seeds ~direction:`Backward

(* --- interval liveness of a compute order (MAXLIVE) --- *)

module Streamed = struct
  type t = {
    length : int;
    maxlive : int;
    inputs_used : int;
    outputs_stored : int;
  }
end

(* One sweep over (view, order) for both backings. [iter_order]
   enumerates the order as (step, vertex) and [pos v] is a vertex's
   position key ([max_int] when unscheduled; keys increase along the
   order). A value is live on [start..stop]: a computed value from its
   definition, an input from its first use (detected as "this consumer
   is my earliest one"), both through their last use — a defined-but-
   unused value still occupies its own slot at its definition instant.
   Every stop is the key of a scheduled step, so the intervals that end
   before step [now] are exactly those stopping at the previous step's
   key: a count of open intervals per stop key is the whole state,
   O(maxlive) rather than O(V) position arrays, kept in an int table
   that allocates only when it grows. [on_live step live] sees the
   liveness at each step. Every closure is built once per run, so a
   step allocates nothing. *)
let sweep work ~pos ~iter_order ~on_live =
  let closing = Int_table.create 32 in
  let running = ref 0 and maxlive = ref 0 and inputs_used = ref 0 in
  let open_until stop =
    Int_table.incr closing stop;
    incr running
  in
  (* earliest and latest scheduled consumer of a value *)
  let lo = ref max_int and hi = ref (-1) in
  let span s =
    let k = pos s in
    if k <> max_int then begin
      if k < !lo then lo := k;
      if k > !hi then hi := k
    end
  in
  let use_span v =
    lo := max_int;
    hi := -1;
    W.iter_succs work v ~f:span
  in
  let is_input = W.is_input work in
  (* inputs opened by the current step (an operand listed twice opens
     once), in a buffer reused across steps *)
  let opened = Vec.create ~dummy:0 in
  let rec was_opened p k = k > 0 && (Vec.get opened (k - 1) = p || was_opened p (k - 1)) in
  let now = ref 0 in
  let on_pred p =
    if is_input p && not (was_opened p (Vec.length opened)) then begin
      use_span p;
      if !lo = !now then begin
        Vec.push opened p;
        incr inputs_used;
        open_until !hi
      end
    end
  in
  let length = ref 0 and prev = ref (-1) in
  iter_order (fun step v ->
      now := pos v;
      running := !running - Int_table.take closing !prev;
      prev := !now;
      use_span v;
      open_until (max !now !hi);
      Vec.clear opened;
      W.iter_preds work v ~f:on_pred;
      if !running > !maxlive then maxlive := !running;
      on_live step !running;
      incr length);
  {
    Streamed.length = !length;
    maxlive = !maxlive;
    inputs_used = !inputs_used;
    outputs_stored =
      Array.fold_left (fun acc v -> if is_input v then acc else acc + 1) 0 (W.outputs work);
  }

type liveness = {
  first_use : int array;
  live_at : int array;
  maxlive : int;
  inputs_used : int;
  outputs_stored : int;
}

let order_liveness work order =
  let n = W.n_vertices work in
  let len = Array.length order in
  let pos = Array.make n max_int in
  Array.iteri
    (fun i v ->
      if v < 0 || v >= n then
        invalid_arg (Printf.sprintf "order_liveness: vertex %d out of range" v);
      if W.is_input work v then
        invalid_arg (Printf.sprintf "order_liveness: input %d in order" v);
      if pos.(v) <> max_int then
        invalid_arg (Printf.sprintf "order_liveness: vertex %d repeated" v);
      pos.(v) <- i)
    order;
  let live_at = Array.make len 0 in
  let s =
    sweep work
      ~pos:(fun v -> pos.(v))
      ~iter_order:(fun f -> Array.iteri f order)
      ~on_live:(fun i live -> live_at.(i) <- live)
  in
  let first_use = Array.make n (-1) in
  let step = ref 0 in
  let mark p = if first_use.(p) < 0 then first_use.(p) <- !step in
  Array.iteri
    (fun i v ->
      step := i;
      W.iter_preds work v ~f:mark)
    order;
  {
    first_use;
    live_at;
    maxlive = s.Streamed.maxlive;
    inputs_used = s.Streamed.inputs_used;
    outputs_stored = s.Streamed.outputs_stored;
  }

let implicit_order_liveness imp =
  let work = W.of_implicit imp in
  sweep work ~pos:Fun.id
    ~iter_order:(fun f -> W.iter_ascending_order work ~f)
    ~on_live:(fun _ _ -> ())

(* Each used input costs one load and each non-input output one store;
   at the peak, each of the [maxlive - M] live values that cannot be
   resident costs at least one extra I/O. *)
let streamed_io_lower_bound (s : Streamed.t) ~cache_size =
  s.Streamed.inputs_used + s.Streamed.outputs_stored
  + max 0 (s.Streamed.maxlive - cache_size)

let io_lower_bound lv ~cache_size =
  lv.inputs_used + lv.outputs_stored + max 0 (lv.maxlive - cache_size)

(* --- cache profile of a concrete trace --- *)

type profile = {
  peak_occupancy : int;
  peak_live : int;
  min_cache : int;
}

(* Access kinds in per-vertex access streams, one byte each. *)
let k_def = '\000' (* Load v / Compute v: (re)materializes v in cache *)
let k_read = '\001' (* Store v / operand read: residency serves a use *)
let k_drop = '\002' (* Evict v *)

(* The trace is read in place, three times (count, record, replay); per
   vertex the profile keeps an offset and a cursor into one byte per
   access, and every callback is built once per run. *)
let trace_profile work trace =
  let n = W.n_vertices work in
  let g = W.graph work in
  let t_len = Tr.length trace in
  let in_range v = v >= 0 && v < n in
  (* a vertex v's accesses are [kinds.[first.(v) .. first.(v+1) - 1]]
     in trace order; operands of a compute are one access each and
     out-of-range vertices are skipped (the tolerant discipline of
     Trace_check) *)
  let first = Array.make (n + 1) 0 in
  let tally v = first.(v + 1) <- first.(v + 1) + 1 in
  for t = 0 to t_len - 1 do
    let c = Tr.code trace t in
    let v = Tr.vertex c in
    if in_range v then begin
      (match Tr.kind c with `Compute -> List.iter tally (D.in_neighbors g v) | _ -> ());
      tally v
    end
  done;
  for v = 0 to n - 1 do
    first.(v + 1) <- first.(v + 1) + first.(v)
  done;
  let kinds = Bytes.make (max 1 first.(n)) k_def in
  let cursor = Array.sub first 0 n in
  let record k v =
    Bytes.set kinds cursor.(v) k;
    cursor.(v) <- cursor.(v) + 1
  in
  let rec record_reads = function
    | [] -> ()
    | p :: rest ->
      record k_read p;
      record_reads rest
  in
  let kind_of c =
    match Tr.kind c with `Load | `Compute -> k_def | `Store -> k_read | `Evict -> k_drop
  in
  for t = 0 to t_len - 1 do
    let c = Tr.code trace t in
    let v = Tr.vertex c in
    if in_range v then begin
      (match Tr.kind c with `Compute -> record_reads (D.in_neighbors g v) | _ -> ());
      record (kind_of c) v
    end
  done;
  (* pass 2: replay residency; a resident value is *live* when its
     next access (before any eviction) is a read *)
  Array.blit first 0 cursor 0 n;
  let resident = Bitset.create n in
  let live = Bitset.create n in
  let occ = ref 0 and live_n = ref 0 in
  let peak_occ = ref 0 and peak_live = ref 0 in
  let touch k v =
    cursor.(v) <- cursor.(v) + 1;
    (if k = k_def then begin
       if not (Bitset.mem resident v) then begin
         Bitset.add resident v;
         incr occ;
         if !occ > !peak_occ then peak_occ := !occ
       end
     end
     else if k = k_drop then
       if Bitset.mem resident v then begin
         Bitset.remove resident v;
         decr occ
       end);
    let now_live =
      Bitset.mem resident v
      && cursor.(v) < first.(v + 1)
      && Bytes.get kinds cursor.(v) = k_read
    in
    if now_live <> Bitset.mem live v then
      if now_live then begin
        Bitset.add live v;
        incr live_n;
        if !live_n > !peak_live then peak_live := !live_n
      end
      else begin
        Bitset.remove live v;
        decr live_n
      end
  in
  let rec touch_reads = function
    | [] -> ()
    | p :: rest ->
      touch k_read p;
      touch_reads rest
  in
  for t = 0 to t_len - 1 do
    let c = Tr.code trace t in
    let v = Tr.vertex c in
    if in_range v then begin
      (match Tr.kind c with `Compute -> touch_reads (D.in_neighbors g v) | _ -> ());
      touch (kind_of c) v
    end
  done;
  { peak_occupancy = !peak_occ; peak_live = !peak_live; min_cache = !peak_occ }
