(* The sequential machine model of Section II-B: a fast memory of M
   words and an unbounded slow memory. Inputs start in slow memory;
   computations require every operand in fast memory and leave their
   result in fast memory; each Load/Store is one I/O operation.

   [replay] validates a trace against the model (the legality oracle
   every scheduler is tested against) and returns the I/O counters.
   Recomputation is legal: a vertex may be Computed any number of
   times, each time its operands are resident — this is precisely the
   freedom whose uselessness (for fast MM) the paper proves. *)

exception Illegal of string

type config = {
  cache_size : int;
  allow_recompute : bool; (* when false, a second Compute of a vertex is rejected *)
}

type state = {
  cfg : config;
  work : Workload.t;
  input_mask : int -> bool;
  in_cache : bool array;
  in_slow : bool array;
  computed : bool array;
  mutable occupancy : int;
  mutable step : int; (* 0-based index of the event being applied *)
  mutable loads : int;
  mutable stores : int;
  mutable computes : int;
  mutable recomputes : int;
}

let illegal fmt = Printf.ksprintf (fun s -> raise (Illegal s)) fmt

(* Every violation names the offending trace step and vertex, so a
   failed replay is directly actionable (and greppable against the
   static checker's step-located diagnostics). *)
let illegal_at st fmt =
  Printf.ksprintf
    (fun s -> raise (Illegal (Printf.sprintf "step %d: %s" st.step s)))
    fmt

let init cfg work =
  if cfg.cache_size <= 0 then invalid_arg "Cache_machine: cache_size <= 0";
  let n = Workload.n_vertices work in
  let st =
    {
      cfg;
      work;
      input_mask = Workload.is_input work;
      in_cache = Array.make n false;
      in_slow = Array.make n false;
      computed = Array.make n false;
      occupancy = 0;
      step = 0;
      loads = 0;
      stores = 0;
      computes = 0;
      recomputes = 0;
    }
  in
  Array.iter (fun v -> st.in_slow.(v) <- true) (Workload.inputs work);
  st

let is_input st v = st.input_mask v

(* Every operand of [v] must be resident. *)
let rec need_operands st v = function
  | [] -> ()
  | p :: rest ->
    if not st.in_cache.(p) then
      illegal_at st "compute of vertex %d: operand %d not in cache" v p;
    need_operands st v rest

let apply st code =
  let v = Trace.vertex code in
  (match Trace.kind code with
  | `Load ->
    if not st.in_slow.(v) then illegal_at st "load of vertex %d: not in slow memory" v;
    if st.in_cache.(v) then illegal_at st "load of vertex %d: already in cache" v;
    if st.occupancy >= st.cfg.cache_size then
      illegal_at st "load of vertex %d: cache full (M = %d)" v st.cfg.cache_size;
    st.in_cache.(v) <- true;
    st.occupancy <- st.occupancy + 1;
    st.loads <- st.loads + 1
  | `Store ->
    if not st.in_cache.(v) then illegal_at st "store of vertex %d: not in cache" v;
    st.in_slow.(v) <- true;
    st.stores <- st.stores + 1
  | `Evict ->
    if not st.in_cache.(v) then illegal_at st "evict of vertex %d: not in cache" v;
    st.in_cache.(v) <- false;
    st.occupancy <- st.occupancy - 1
  | `Compute ->
    if is_input st v then
      illegal_at st "compute of vertex %d: inputs are not computable" v;
    if st.computed.(v) && not st.cfg.allow_recompute then
      illegal_at st "compute of vertex %d: recomputation disabled" v;
    need_operands st v (Fmm_graph.Digraph.in_neighbors (Workload.graph st.work) v);
    if not st.in_cache.(v) then begin
      if st.occupancy >= st.cfg.cache_size then
        illegal_at st "compute of vertex %d: cache full (M = %d)" v st.cfg.cache_size;
      st.in_cache.(v) <- true;
      st.occupancy <- st.occupancy + 1
    end;
    if st.computed.(v) then st.recomputes <- st.recomputes + 1;
    st.computed.(v) <- true;
    st.computes <- st.computes + 1);
  st.step <- st.step + 1

let counters st =
  {
    Trace.loads = st.loads;
    stores = st.stores;
    computes = st.computes;
    recomputes = st.recomputes;
  }

(** Validate the final state: every CDAG output must have been computed
    and be available in slow memory. Unlike [apply] (which stops at the
    event that broke the model), the final check has no single offending
    step, so it collects EVERY unsatisfied output and reports them all
    in one [Illegal], each located "vertex %d: ..." in the same
    convention the static analyzer's diagnostics use — a failed run
    names the complete set of missing results, not just the first. *)
let check_final st =
  let bad =
    Array.to_list (Workload.outputs st.work)
    |> List.filter_map (fun v ->
           (* an output that is itself an input (e.g. LU's untouched
              first row of U) is available in slow memory from the
              start *)
           if is_input st v then None
           else if not st.computed.(v) then
             Some (Printf.sprintf "vertex %d: never computed" v)
           else if not st.in_slow.(v) then
             Some (Printf.sprintf "vertex %d: computed but never stored to slow memory" v)
           else None)
  in
  match bad with
  | [] -> ()
  | fails ->
    illegal "final state: %d unsatisfied output(s): %s" (List.length fails)
      (String.concat "; " fails)

(** Replay a full trace and return the counters; raises [Illegal] on
    any model violation. *)
let replay cfg work (trace : Trace.t) =
  let st = init cfg work in
  for i = 0 to Trace.length trace - 1 do
    apply st (Trace.code trace i)
  done;
  check_final st;
  counters st
