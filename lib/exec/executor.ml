(* The numeric execution backend (ROADMAP item 2): take any
   replay-verified schedule — a Trace.t from run_lru / run_belady /
   run_rematerialize / run_hybrid / the optimizer — and EXECUTE it on
   real data, interpreting every event against concrete storage:

   - Load v   : copy v's value slow -> fast (v must be in slow memory,
                and the fast memory must have a free word);
   - Store v  : copy fast -> slow;
   - Evict v  : drop v's word from fast memory;
   - Compute v: evaluate v's operation (input fetch / linear
                combination / product, compiled once from the CDAG)
                reading operands from fast memory only, writing the
                result into a fast word.

   Two element backends behind one functor interface: Bigarray float64
   with a genuine cache_size-word fast-memory arena (slot allocation,
   vertex -> slot table), and the exact rings of lib/ring (Rat / Zp /
   Bigint) as bit-exact oracles. Executed counters are recomputed from
   the events actually interpreted, so comparing them against the
   scheduler's predicted counters checks the word-counting simulators
   event-for-event; comparing the output values against classical MM
   checks the semantics end to end. *)

module D = Fmm_graph.Digraph
module Cdag = Fmm_cdag.Cdag
module Trace = Fmm_machine.Trace
module Schedulers = Fmm_machine.Schedulers
module Workload = Fmm_machine.Workload
module Orders = Fmm_machine.Orders
module Prng = Fmm_util.Prng

exception Exec_error of string

let err fmt = Printf.ksprintf (fun s -> raise (Exec_error s)) fmt

(* --- CDAG semantics, compiled once --- *)

type op =
  | Op_input_a of int (* index into vec(A) *)
  | Op_input_b of int
  | Op_linear of (int * int) array (* (source vertex, coefficient) *)
  | Op_mult of int * int

let compile cdag =
  let g = Cdag.graph cdag in
  Array.init (Cdag.n_vertices cdag) (fun v ->
      match Cdag.role cdag v with
      | Cdag.Input_a i -> Op_input_a i
      | Cdag.Input_b i -> Op_input_b i
      | Cdag.Enc_a | Cdag.Enc_b | Cdag.Dec ->
        Op_linear
          (Array.of_list
             (List.map
                (fun src ->
                  match Cdag.edge_coeff cdag src v with
                  | Some c -> (src, c)
                  | None -> err "Executor.compile: linear edge %d->%d without coefficient" src v)
                (D.in_neighbors g v)))
      | Cdag.Mult -> (
        match D.in_neighbors g v with
        | [ x; y ] -> Op_mult (x, y)
        | l -> err "Executor.compile: Mult vertex %d with %d operands" v (List.length l)))

(* --- storage backends --- *)

module type BACKEND = sig
  type elt
  type t

  val name : string
  val create : n_vertices:int -> cache_size:int -> t
  val set_slow : t -> int -> elt -> unit
  val slow_present : t -> int -> bool
  val get_slow : t -> int -> elt
  val fast_present : t -> int -> bool
  val occupancy : t -> int

  val load : t -> int -> unit
  (** slow -> fast; legality already checked by the engine. *)

  val store : t -> int -> unit
  val evict : t -> int -> unit

  val compute : t -> int -> op -> unit
  (** Evaluate [op] reading operands from fast memory, write the result
      into v's fast word (allocating it if absent). *)
end

(* Exact-ring backend: values held in vertex-indexed arrays, residency
   in flag arrays. The fast "memory" is bounded by the engine's
   occupancy accounting (the arena below makes the bound physical for
   float64). *)
module Ring_backend (R : Fmm_ring.Sig_ring.S) : BACKEND with type elt = R.t = struct
  type elt = R.t

  type t = {
    slow : elt array;
    slow_mem : bool array;
    fast : elt array;
    fast_mem : bool array;
    mutable occ : int;
  }

  let name = "ring"

  let create ~n_vertices ~cache_size:_ =
    {
      slow = Array.make n_vertices R.zero;
      slow_mem = Array.make n_vertices false;
      fast = Array.make n_vertices R.zero;
      fast_mem = Array.make n_vertices false;
      occ = 0;
    }

  let set_slow t v x =
    t.slow.(v) <- x;
    t.slow_mem.(v) <- true

  let slow_present t v = t.slow_mem.(v)
  let get_slow t v = t.slow.(v)
  let fast_present t v = t.fast_mem.(v)
  let occupancy t = t.occ

  let load t v =
    t.fast.(v) <- t.slow.(v);
    if not t.fast_mem.(v) then begin
      t.fast_mem.(v) <- true;
      t.occ <- t.occ + 1
    end

  let store t v =
    t.slow.(v) <- t.fast.(v);
    t.slow_mem.(v) <- true

  let evict t v =
    if t.fast_mem.(v) then begin
      t.fast_mem.(v) <- false;
      t.occ <- t.occ - 1
    end

  let compute t v op =
    let value =
      match op with
      | Op_input_a _ | Op_input_b _ -> err "Ring_backend: compute of an input"
      | Op_linear srcs ->
        Array.fold_left
          (fun acc (src, c) -> R.add acc (R.mul (R.of_int c) t.fast.(src)))
          R.zero srcs
      | Op_mult (x, y) -> R.mul t.fast.(x) t.fast.(y)
    in
    t.fast.(v) <- value;
    if not t.fast_mem.(v) then begin
      t.fast_mem.(v) <- true;
      t.occ <- t.occ + 1
    end
end

(* Float64 backend with a physical fast memory: a cache_size-word
   Bigarray arena plus a vertex -> slot table and a free-slot stack.
   Every resident value occupies exactly one of the M words, so the
   cache-size bound is enforced by construction, not just counted. *)
module F64_backend : BACKEND with type elt = float = struct
  module A1 = Bigarray.Array1

  type elt = float

  type t = {
    slow : (float, Bigarray.float64_elt, Bigarray.c_layout) A1.t;
    slow_mem : Bytes.t;
    arena : (float, Bigarray.float64_elt, Bigarray.c_layout) A1.t;
    slot_of : int array; (* vertex -> arena slot, -1 if not resident *)
    free : int array; (* free-slot stack *)
    mutable free_top : int;
  }

  let name = "float64"

  let bit_mem b i = Char.code (Bytes.unsafe_get b (i lsr 3)) land (1 lsl (i land 7)) <> 0

  let bit_set b i =
    Bytes.unsafe_set b (i lsr 3)
      (Char.unsafe_chr (Char.code (Bytes.unsafe_get b (i lsr 3)) lor (1 lsl (i land 7))))

  let create ~n_vertices ~cache_size =
    let slow = A1.create Bigarray.float64 Bigarray.c_layout n_vertices in
    A1.fill slow 0.0;
    let arena = A1.create Bigarray.float64 Bigarray.c_layout (max 1 cache_size) in
    A1.fill arena 0.0;
    {
      slow;
      slow_mem = Bytes.make ((n_vertices + 7) / 8) '\000';
      arena;
      slot_of = Array.make n_vertices (-1);
      free = Array.init (max 1 cache_size) (fun i -> i);
      free_top = max 1 cache_size;
    }

  let set_slow t v x =
    A1.set t.slow v x;
    bit_set t.slow_mem v

  let slow_present t v = bit_mem t.slow_mem v
  let get_slow t v = A1.get t.slow v
  let fast_present t v = t.slot_of.(v) >= 0
  let occupancy t = A1.dim t.arena - t.free_top

  let alloc_slot t v =
    if t.slot_of.(v) < 0 then begin
      if t.free_top = 0 then err "F64_backend: fast memory arena exhausted";
      t.free_top <- t.free_top - 1;
      t.slot_of.(v) <- t.free.(t.free_top)
    end;
    t.slot_of.(v)

  let load t v =
    let s = alloc_slot t v in
    A1.set t.arena s (A1.get t.slow v)

  let store t v =
    A1.set t.slow v (A1.get t.arena t.slot_of.(v));
    bit_set t.slow_mem v

  let evict t v =
    let s = t.slot_of.(v) in
    if s >= 0 then begin
      t.slot_of.(v) <- -1;
      t.free.(t.free_top) <- s;
      t.free_top <- t.free_top + 1
    end

  let compute t v op =
    let value =
      match op with
      | Op_input_a _ | Op_input_b _ -> err "F64_backend: compute of an input"
      | Op_linear srcs ->
        Array.fold_left
          (fun acc (src, c) ->
            acc +. (float_of_int c *. A1.get t.arena t.slot_of.(src)))
          0.0 srcs
      | Op_mult (x, y) -> A1.get t.arena t.slot_of.(x) *. A1.get t.arena t.slot_of.(y)
    in
    let s = alloc_slot t v in
    A1.set t.arena s value
end

(* --- the trace-interpreting engine --- *)

module Engine (B : BACKEND) = struct
  type result = {
    outputs : B.elt array; (* vec(C): values at the CDAG outputs *)
    counters : Trace.counters; (* recounted from the interpreted events *)
    peak_occupancy : int;
  }

  let run cdag ~cache_size ~(a : B.elt array) ~(b : B.elt array) (trace : Trace.t) =
    let nv = Cdag.n_vertices cdag in
    let n = Cdag.size cdag in
    if Array.length a <> n * n || Array.length b <> n * n then
      err "Executor.run: operand length mismatch (want %d)" (n * n);
    if cache_size < 1 then err "Executor.run: cache_size < 1";
    let ops = compile cdag in
    let st = B.create ~n_vertices:nv ~cache_size in
    Array.iteri
      (fun i op ->
        match op with
        | Op_input_a k -> B.set_slow st i a.(k)
        | Op_input_b k -> B.set_slow st i b.(k)
        | _ -> ())
      ops;
    let computed = Bytes.make ((nv + 7) / 8) '\000' in
    let was_computed v =
      Char.code (Bytes.get computed (v lsr 3)) land (1 lsl (v land 7)) <> 0
    in
    let mark_computed v =
      Bytes.set computed (v lsr 3)
        (Char.chr (Char.code (Bytes.get computed (v lsr 3)) lor (1 lsl (v land 7))))
    in
    let loads = ref 0 and stores = ref 0 in
    let computes = ref 0 and recomputes = ref 0 in
    let peak = ref 0 in
    let bump_peak () = if B.occupancy st > !peak then peak := B.occupancy st in
    let need_fast what v p =
      if not (B.fast_present st p) then
        err "Executor.run: %s of vertex %d needs %d in fast memory" what v p
    in
    for i = 0 to Trace.length trace - 1 do
      let code = Trace.code trace i in
      let v = Trace.vertex code in
      match Trace.kind code with
      | `Load ->
        if not (B.slow_present st v) then
          err "Executor.run: load of vertex %d absent from slow memory" v;
        if B.fast_present st v then
          err "Executor.run: load of already-resident vertex %d" v;
        if B.occupancy st >= cache_size then
          err "Executor.run: fast memory full (%d words) at load of %d" cache_size v;
        B.load st v;
        incr loads;
        bump_peak ()
      | `Store ->
        need_fast "store" v v;
        B.store st v;
        incr stores
      | `Evict ->
        need_fast "evict" v v;
        B.evict st v
      | `Compute ->
        (match ops.(v) with
        | Op_input_a _ | Op_input_b _ ->
          err "Executor.run: compute of input vertex %d" v
        | Op_linear srcs ->
          for k = 0 to Array.length srcs - 1 do
            need_fast "compute" v (fst srcs.(k))
          done
        | Op_mult (x, y) ->
          need_fast "compute" v x;
          need_fast "compute" v y);
        if (not (B.fast_present st v)) && B.occupancy st >= cache_size then
          err "Executor.run: fast memory full (%d words) at compute of %d" cache_size v;
        B.compute st v ops.(v);
        incr computes;
        if was_computed v then incr recomputes else mark_computed v;
        bump_peak ()
    done;
    let outputs =
      Array.map
        (fun v ->
          if not (B.slow_present st v) then
            err "Executor.run: output vertex %d not in slow memory at end of trace" v;
          B.get_slow st v)
        (Cdag.outputs cdag)
    in
    {
      outputs;
      counters =
        {
          Trace.loads = !loads;
          stores = !stores;
          computes = !computes;
          recomputes = !recomputes;
        };
      peak_occupancy = !peak;
    }
end

module F64 = Engine (F64_backend)
module Make_ring (R : Fmm_ring.Sig_ring.S) = Engine (Ring_backend (R))
module Zp = Make_ring (Fmm_ring.Zp.Z65537)
module Q = Make_ring (Fmm_ring.Rat.Field)
module Big = Make_ring (Fmm_ring.Sig_ring.Big)

(* --- configuration validation (shared with the fmmlab CLI) --- *)

(* Degenerate configurations are rejected up front with a diagnostic
   (the CLI turns this into exit code 2): n = 1 has no multiplication
   tree, rectangular bases have no square recursive CDAG, and n and the
   hybrid cutoff must be powers of the base dimension for the recursion
   to tile. *)
let validate_config ?(cutoff = 1) alg ~n =
  let n0, m0, k0 = Fmm_bilinear.Algorithm.dims alg in
  if n0 <> m0 || m0 <> k0 then
    Error
      (Printf.sprintf
         "algorithm %s has a rectangular <%d,%d,%d> base: the recursive CDAG \
          needs a square base case"
         (Fmm_bilinear.Algorithm.name alg)
         n0 m0 k0)
  else if n0 < 2 then
    Error
      (Printf.sprintf "algorithm %s has a degenerate 1x1 base case"
         (Fmm_bilinear.Algorithm.name alg))
  else if n < 2 then
    Error (Printf.sprintf "n = %d is degenerate: need n >= 2 (one real recursion level)" n)
  else begin
    let rec power x = x = 1 || (x mod n0 = 0 && power (x / n0)) in
    if not (power n) then
      Error
        (Printf.sprintf "n = %d is not a power of the base dimension %d" n n0)
    else if cutoff < 1 then
      Error
        (Printf.sprintf "cutoff = %d is degenerate: need cutoff >= 1" cutoff)
    else if cutoff > n then
      Error (Printf.sprintf "cutoff = %d exceeds n = %d" cutoff n)
    else if not (power cutoff) then
      Error
        (Printf.sprintf "cutoff = %d is not a power of the base dimension %d"
           cutoff n0)
    else Ok ()
  end

(* --- policies and end-to-end verification --- *)

type policy = Lru | Belady | Remat

let all_policies = [ Lru; Belady; Remat ]
let policy_to_string = function Lru -> "lru" | Belady -> "belady" | Remat -> "remat"

let policy_of_string = function
  | "lru" -> Some Lru
  | "belady" -> Some Belady
  | "remat" -> Some Remat
  | _ -> None

let schedule cdag ~cache_size policy =
  let work = Workload.of_cdag cdag in
  let order = Orders.recursive_dfs cdag in
  match policy with
  | Lru -> Schedulers.run_lru work ~cache_size order
  | Belady -> Schedulers.run_belady work ~cache_size order
  | Remat -> Schedulers.run_rematerialize work ~cache_size order

type backend_report = {
  backend : string;
  exact : bool; (* exact ring comparison vs float tolerance *)
  max_err : float; (* 0 for exact backends *)
  result_ok : bool; (* executed result = classical MM *)
  counters_ok : bool; (* executed counters = scheduler's prediction *)
  executed : Trace.counters;
  peak_occupancy : int;
}

let report_ok r = r.result_ok && r.counters_ok

(* Counter parity is checked two ways: the engine's recount of the
   events it interpreted must equal the scheduler's counters, and so
   must Trace.count of the raw trace (so the scheduler's counters
   honestly describe the trace it emitted). *)
let counters_match (sched : Schedulers.result) executed =
  executed = sched.Schedulers.counters
  && Trace.count sched.Schedulers.trace = sched.Schedulers.counters

module Check_ring (R : Fmm_ring.Sig_ring.S) = struct
  module E = Make_ring (R)
  module M = Fmm_matrix.Matrix.Make (R)

  let run cdag ~cache_size ~(sched : Schedulers.result) ~seed ~name =
    let n = Cdag.size cdag in
    let rng = Prng.create ~seed in
    let rand () = R.of_int (Prng.int_range rng (-50) 50) in
    let a = Array.init (n * n) (fun _ -> rand ()) in
    let b = Array.init (n * n) (fun _ -> rand ()) in
    let res = E.run cdag ~cache_size ~a ~b sched.Schedulers.trace in
    let expected = M.vec_of (M.mul (M.of_vec n n a) (M.of_vec n n b)) in
    let result_ok =
      Array.length res.E.outputs = Array.length expected
      && Array.for_all2 R.equal res.E.outputs expected
    in
    {
      backend = name;
      exact = true;
      max_err = 0.;
      result_ok;
      counters_ok = counters_match sched res.E.counters;
      executed = res.E.counters;
      peak_occupancy = res.E.peak_occupancy;
    }
end

module Check_zp = Check_ring (Fmm_ring.Zp.Z65537)
module Check_q = Check_ring (Fmm_ring.Rat.Field)
module Check_big = Check_ring (Fmm_ring.Sig_ring.Big)

let run_f64 ?(tol = 1e-9) cdag ~cache_size ~(sched : Schedulers.result) ~seed =
  let n = Cdag.size cdag in
  let rng = Prng.create ~seed in
  let ma = Kernel.random rng n in
  let mb = Kernel.random rng n in
  let res =
    F64.run cdag ~cache_size ~a:(Kernel.to_vec ma) ~b:(Kernel.to_vec mb)
      sched.Schedulers.trace
  in
  let reference = Kernel.naive_mul ma mb in
  let executed_mat = Kernel.of_vec n res.F64.outputs in
  let max_err = Kernel.rel_err executed_mat ~reference in
  {
    backend = "float64";
    exact = false;
    max_err;
    result_ok = max_err <= tol;
    counters_ok = counters_match sched res.F64.counters;
    executed = res.F64.counters;
    peak_occupancy = res.F64.peak_occupancy;
  }

type backend_kind = [ `F64 | `Zp | `Rat | `Big ]

let backend_kind_to_string = function
  | `F64 -> "float64"
  | `Zp -> "zp65537"
  | `Rat -> "rat"
  | `Big -> "bigint"

let backend_kind_of_string = function
  | "float64" | "f64" -> Some `F64
  | "zp65537" | "zp" -> Some `Zp
  | "rat" | "q" -> Some `Rat
  | "bigint" | "big" -> Some `Big
  | _ -> None

let run_backend ?(tol = 1e-9) cdag ~cache_size ~sched ~seed kind =
  let seed = Prng.derive ~seed [ Hashtbl.hash (backend_kind_to_string kind) ] in
  match kind with
  | `F64 -> run_f64 ~tol cdag ~cache_size ~sched ~seed
  | `Zp -> Check_zp.run cdag ~cache_size ~sched ~seed ~name:"zp65537"
  | `Rat -> Check_q.run cdag ~cache_size ~sched ~seed ~name:"rat"
  | `Big -> Check_big.run cdag ~cache_size ~sched ~seed ~name:"bigint"

type verification = {
  algorithm : string;
  n : int;
  cache_size : int;
  policy_name : string;
  predicted : Trace.counters; (* the scheduler's word counts *)
  reports : backend_report list;
}

let verification_ok v = v.reports <> [] && List.for_all report_ok v.reports

(* Execute an already-produced schedule on every requested backend. *)
let verify_sched ?(seed = 0) ?(tol = 1e-9) ?(backends = [ `F64; `Zp ]) cdag
    ~cache_size ~policy_name (sched : Schedulers.result) =
  {
    algorithm = Fmm_bilinear.Algorithm.name (Cdag.base_algorithm cdag);
    n = Cdag.size cdag;
    cache_size;
    policy_name;
    predicted = sched.Schedulers.counters;
    reports =
      List.map (fun k -> run_backend ~tol cdag ~cache_size ~sched ~seed k) backends;
  }

(* Build the (possibly hybrid) CDAG, run the policy's scheduler,
   execute and check. *)
let verify ?(seed = 0) ?(tol = 1e-9) ?(backends = [ `F64; `Zp ]) ?(cutoff = 1)
    alg ~n ~cache_size ~policy =
  (match validate_config ~cutoff alg ~n with
  | Ok () -> ()
  | Error msg -> invalid_arg ("Executor.verify: " ^ msg));
  let cdag = Cdag.build ~cutoff alg ~n in
  let sched = schedule cdag ~cache_size policy in
  verify_sched ~seed ~tol ~backends cdag ~cache_size
    ~policy_name:(policy_to_string policy) sched
