(* Execution traces of the sequential machine model (Section II-B of
   the paper): a program is a sequence of loads, stores, evictions and
   computations over CDAG vertices. Traces are produced by the
   schedulers and consumed by the legality checkers, the numeric
   executor and the segment analyzer.

   The layout is private to this module: one int per event, [vertex
   lsl 2 lor tag] with the kind's tag in the low two bits, in an array
   of exactly the trace's length (no slack, so structural equality
   compares events). A recompute-heavy trace runs to millions of
   events, so it costs one word per event and every hot reader decodes
   codes in place instead of boxing events. *)

type event =
  | Load of int (* slow -> fast; one I/O read *)
  | Store of int (* fast -> slow; one I/O write *)
  | Evict of int (* drop from fast memory; free *)
  | Compute of int (* all predecessors must be in fast memory *)

type t = int array

type kind = [ `Load | `Store | `Evict | `Compute ]

let t_load = 0
let t_store = 1
let t_evict = 2
let t_compute = 3

(* Ids whose shift by two loses no bit; [asr] restores negative ones. *)
let min_vertex = min_int asr 2
let max_vertex = max_int asr 2

let pack tag v =
  if v < min_vertex || v > max_vertex then
    invalid_arg (Printf.sprintf "Trace: vertex %d cannot be packed" v);
  (v lsl 2) lor tag

let load v = pack t_load v
let store v = pack t_store v
let evict v = pack t_evict v
let compute v = pack t_compute v
let vertex code = code asr 2

let kind code : kind =
  match code land 3 with 0 -> `Load | 1 -> `Store | 2 -> `Evict | _ -> `Compute

let encode = function
  | Load v -> load v
  | Store v -> store v
  | Evict v -> evict v
  | Compute v -> compute v

let decode code =
  let v = vertex code in
  match kind code with
  | `Load -> Load v
  | `Store -> Store v
  | `Evict -> Evict v
  | `Compute -> Compute v

let length (t : t) = Array.length t
let code (t : t) i = t.(i)
let iter_codes f (t : t) = Array.iter f t
let get t i = decode t.(i)
let iter f t = Array.iter (fun c -> f (decode c)) t
let fold f init t = Array.fold_left (fun acc c -> f acc (decode c)) init t
let to_list t = List.map decode (Array.to_list t)
let of_list events = Array.of_list (List.map encode events)

let event_to_string = function
  | Load v -> Printf.sprintf "load %d" v
  | Store v -> Printf.sprintf "store %d" v
  | Evict v -> Printf.sprintf "evict %d" v
  | Compute v -> Printf.sprintf "compute %d" v

(* Codes accumulate in chunks that double from 1 024 words up to
   [max_chunk]. A full chunk is kept as it is, so growing never copies
   codes nor holds an old and a new buffer at once, and no chunk but
   the last has slack; [freeze] copies every chunk once into the
   exact-length trace. *)
type builder = {
  mutable full : int array list; (* filled chunks, newest first *)
  mutable filled : int; (* codes in [full] *)
  mutable chunk : int array;
  mutable fill : int; (* codes in [chunk] *)
}

let max_chunk = 1 lsl 16

let builder () = { full = []; filled = 0; chunk = Array.make 1024 0; fill = 0 }

let add b code =
  if b.fill = Array.length b.chunk then begin
    b.full <- b.chunk :: b.full;
    b.filled <- b.filled + b.fill;
    b.chunk <- Array.make (min max_chunk (2 * b.fill)) 0;
    b.fill <- 0
  end;
  b.chunk.(b.fill) <- code;
  b.fill <- b.fill + 1

let freeze b =
  let t = Array.make (b.filled + b.fill) 0 in
  Array.blit b.chunk 0 t b.filled b.fill;
  let stop = ref b.filled in
  List.iter
    (fun c ->
      stop := !stop - Array.length c;
      Array.blit c 0 t !stop (Array.length c))
    b.full;
  t

type counters = {
  loads : int;
  stores : int;
  computes : int;
  recomputes : int; (* computations of an already-computed vertex *)
}

let io counters = counters.loads + counters.stores

(* Recount a trace from its events alone. A second Compute of the same
   vertex is a recomputation, which is the only counter that needs
   state; consumers (the numeric executor, the tests) use this to check
   that a scheduler's counters describe the trace it actually emitted.
   The computed set is a bitset over the computed ids' range, unless
   that range is sparse enough that its bitset would outweigh the
   trace itself. *)
let count (t : t) =
  let loads = ref 0 and stores = ref 0 and computes = ref 0 in
  let lo = ref max_int and hi = ref min_int in
  for i = 0 to Array.length t - 1 do
    let c = t.(i) in
    let tag = c land 3 in
    if tag = t_load then incr loads
    else if tag = t_store then incr stores
    else if tag = t_compute then begin
      incr computes;
      let v = vertex c in
      if v < !lo then lo := v;
      if v > !hi then hi := v
    end
  done;
  let lo = !lo and span = if !computes = 0 then 0 else !hi - !lo + 1 in
  let first_time =
    if span / 64 <= Array.length t then begin
      let seen = Fmm_util.Bitset.create span in
      fun v ->
        let fresh = not (Fmm_util.Bitset.mem seen (v - lo)) in
        if fresh then Fmm_util.Bitset.add seen (v - lo);
        fresh
    end
    else begin
      let seen = Hashtbl.create 256 in
      fun v ->
        let fresh = not (Hashtbl.mem seen v) in
        if fresh then Hashtbl.add seen v ();
        fresh
    end
  in
  let recomputes = ref 0 in
  for i = 0 to Array.length t - 1 do
    let c = t.(i) in
    if c land 3 = t_compute && not (first_time (vertex c)) then incr recomputes
  done;
  { loads = !loads; stores = !stores; computes = !computes; recomputes = !recomputes }

let pp_counters fmt c =
  Format.fprintf fmt "loads=%d stores=%d io=%d computes=%d recomputes=%d"
    c.loads c.stores (io c) c.computes c.recomputes
