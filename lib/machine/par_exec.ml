(* A message-counting distributed executor — the paper's parallel
   machine (Section II-B) at the word level: P processors own disjoint
   parts of the CDAG ("owner computes"); whenever a processor needs an
   operand computed (or initially held) by another, that word is
   transferred once and cached (re-uses are free). Per-processor
   sent/received word counts are the model's I/O.

   Unlike the closed-form cost models in {!Par_model}, this executes
   the actual DAG under an explicit vertex-to-processor assignment, so
   the measured communication of a BFS-partitioned Strassen run can be
   compared directly against the memory-independent lower bound
   n^2 / P^{2/omega0} of Theorem 1.1 ([1]'s bound, which holds
   regardless of recomputation by this paper). *)

type result = {
  procs : int;
  sent : int array; (* words sent per processor *)
  received : int array;
  total_words : int; (* total transfers (= sum sent = sum received) *)
  max_words : int; (* max over processors of (sent + received) *)
}

(** Execute a workload under [assignment] (vertex -> processor).
    Inputs are "computed" where assigned (they start in their owner's
    memory). Each (value, consumer-processor) pair costs one transfer,
    counted once. *)
let run (work : Workload.t) ~procs ~assignment =
  let g = Workload.graph work in
  let n = Workload.n_vertices work in
  if Array.length assignment <> n then
    invalid_arg "Par_exec.run: assignment length mismatch";
  Array.iter
    (fun p -> if p < 0 || p >= procs then invalid_arg "Par_exec.run: bad processor id")
    assignment;
  let sent = Array.make procs 0 and received = Array.make procs 0 in
  (* transferred.(v) = bitset over processor ids already holding v,
     allocated lazily on v's first transfer. The former [int list] made
     every probe O(|holders|), so broadcast-hot values (depth-0 operand
     arrays read by every processor) turned the census superlinear at
     high P; the bitset probe is O(1) and the memory is one byte per 8
     processors per actually-shared value. *)
  let transferred = Array.make n Bytes.empty in
  let holds value consumer =
    let b = transferred.(value) in
    Bytes.length b > 0
    && Char.code (Bytes.unsafe_get b (consumer lsr 3)) land (1 lsl (consumer land 7)) <> 0
  in
  let mark value consumer =
    if Bytes.length transferred.(value) = 0 then
      transferred.(value) <- Bytes.make ((procs + 7) / 8) '\000';
    let b = transferred.(value) in
    let i = consumer lsr 3 in
    Bytes.unsafe_set b i
      (Char.unsafe_chr (Char.code (Bytes.unsafe_get b i) lor (1 lsl (consumer land 7))))
  in
  let order =
    match Fmm_graph.Digraph.topo_sort g with
    | Some o -> o
    | None -> invalid_arg "Par_exec.run: not a DAG"
  in
  let total = ref 0 in
  let fetch value consumer =
    let owner = assignment.(value) in
    if owner <> consumer && not (holds value consumer) then begin
      mark value consumer;
      sent.(owner) <- sent.(owner) + 1;
      received.(consumer) <- received.(consumer) + 1;
      incr total
    end
  in
  (* hoisted: [Workload.is_input work] builds its mask once per call *)
  let is_input = Workload.is_input work in
  List.iter
    (fun v ->
      if not (is_input v) then begin
        let p = assignment.(v) in
        List.iter (fun q -> fetch q p) (Fmm_graph.Digraph.in_neighbors g v)
      end)
    order;
  let max_words = ref 0 in
  for p = 0 to procs - 1 do
    max_words := max !max_words (sent.(p) + received.(p))
  done;
  { procs; sent; received; total_words = !total; max_words = !max_words }

(** The full parallel model of Section II-B: each processor has a local
    memory of [local_memory] words managed LRU; a received or computed
    word may be evicted and must then be re-fetched from its owner (the
    owner re-derives it for free locally — it owns the computation).
    With [local_memory = max_int] this degenerates to {!run}; with
    tight memory the measured traffic rises toward the memory-DEPENDENT
    regime of Theorem 1.1. Owners pin their own values' liveness: an
    owner hitting capacity just re-computes locally at zero word cost
    (communication, not arithmetic, is what this model counts). *)
let run_limited (work : Workload.t) ~procs ~assignment ~local_memory =
  if local_memory < 2 then invalid_arg "Par_exec.run_limited: memory < 2";
  let g = Workload.graph work in
  let n = Workload.n_vertices work in
  if Array.length assignment <> n then
    invalid_arg "Par_exec.run_limited: assignment length mismatch";
  let sent = Array.make procs 0 and received = Array.make procs 0 in
  let total = ref 0 in
  (* Per-processor LRU over foreign words: a time -> value map gives the
     victim in O(log residents); a per-processor value -> time table
     (int-keyed: no tuple allocation per probe) gives residency in O(1);
     an explicit occupancy counter replaces [IntMap.cardinal], which
     made every fetch O(residents) and the whole run quadratic in
     transfers. *)
  let module IntMap = Map.Make (Int) in
  let present = Array.make procs IntMap.empty in
  let time_of : (int, int) Hashtbl.t array =
    Array.init procs (fun _ -> Hashtbl.create 64)
  in
  let occupancy = Array.make procs 0 in
  let clock = ref 0 in
  let touch p v =
    (match Hashtbl.find_opt time_of.(p) v with
    | Some t -> present.(p) <- IntMap.remove t present.(p)
    | None -> occupancy.(p) <- occupancy.(p) + 1);
    incr clock;
    Hashtbl.replace time_of.(p) v !clock;
    present.(p) <- IntMap.add !clock v present.(p)
  in
  let resident p v = Hashtbl.mem time_of.(p) v in
  let evict_lru p =
    match IntMap.min_binding_opt present.(p) with
    | None -> ()
    | Some (t, v) ->
      present.(p) <- IntMap.remove t present.(p);
      Hashtbl.remove time_of.(p) v;
      occupancy.(p) <- occupancy.(p) - 1
  in
  let fetch value consumer =
    let owner = assignment.(value) in
    if owner <> consumer then begin
      if not (resident consumer value) then begin
        sent.(owner) <- sent.(owner) + 1;
        received.(consumer) <- received.(consumer) + 1;
        incr total;
        while occupancy.(consumer) >= local_memory do
          evict_lru consumer
        done;
        touch consumer value
      end
      else touch consumer value
    end
  in
  let order =
    match Fmm_graph.Digraph.topo_sort g with
    | Some o -> o
    | None -> invalid_arg "Par_exec.run_limited: not a DAG"
  in
  let is_input = Workload.is_input work in
  List.iter
    (fun v ->
      if not (is_input v) then begin
        let p = assignment.(v) in
        List.iter (fun q -> fetch q p) (Fmm_graph.Digraph.in_neighbors g v)
      end)
    order;
  let max_words = ref 0 in
  for p = 0 to procs - 1 do
    max_words := max !max_words (sent.(p) + received.(p))
  done;
  { procs; sent; received; total_words = !total; max_words = !max_words }

(* --- assignments --- *)

(** BFS-style partition of a bilinear CDAG: the 7^k sub-trees at
    recursion depth [depth] are dealt round-robin to [procs]
    processors (each subtree's operand arrays travel with it); vertices
    above the cut (upper encoders/decoders) and the primary inputs are
    dealt round-robin by id — the "redistribution" traffic of a
    BFS-parallel Strassen.

    Ownership is FIRST-CLAIM and therefore deterministic: subtrees are
    visited in increasing [subtree_lo] order, each claiming first its
    contiguous vertex range, then its [a_in], then its [b_in] array; a
    vertex already claimed by an earlier subtree keeps its first owner
    (operand vertices shared between subtrees — e.g. at depth 0, or
    where an operand array falls inside another subtree's id range —
    previously went last-writer-wins, so the sent/received census
    depended on iteration order). Vertices no subtree claims keep the
    round-robin-by-id default. *)
(* One sweep for both entry points, on the implicit view (operand
   arrays are contiguous id blocks in the implicit indexing): the
   round-robin default, then a first-claim pass over the depth-[depth]
   nodes in ascending subtree order. A depth outside the recursion has
   no nodes, so it claims nothing and leaves the default. *)
let bfs_assignment_implicit imp ~depth ~procs =
  let module Im = Fmm_cdag.Implicit in
  let n = Im.n_vertices imp in
  let assignment = Array.init n (fun v -> v mod procs) in
  let claimed = Fmm_util.Bitset.create n in
  let claim p v =
    if not (Fmm_util.Bitset.mem claimed v) then begin
      Fmm_util.Bitset.add claimed v;
      assignment.(v) <- p
    end
  in
  if depth >= 0 && depth <= Im.levels imp then begin
    let idx = ref 0 in
    Im.iter_nodes_at_depth imp ~depth ~f:(fun nd ->
        let p = !idx mod procs in
        incr idx;
        for v = nd.Im.lo to nd.Im.hi do
          claim p v
        done;
        let r2 = nd.Im.r * nd.Im.r in
        for i = 0 to r2 - 1 do
          claim p (nd.Im.a_base + i)
        done;
        for i = 0 to r2 - 1 do
          claim p (nd.Im.b_base + i)
        done)
  end;
  assignment

let bfs_assignment cdag ~depth ~procs =
  bfs_assignment_implicit (Fmm_cdag.Implicit.of_cdag cdag) ~depth ~procs

(** Single-processor baseline: everything local, zero communication. *)
let sequential_assignment work = Array.make (Workload.n_vertices work) 0

(** Run a BFS-partitioned Strassen-family CDAG on procs = t^depth
    processors and report words/proc beside the memory-independent
    bound. *)
let strassen_bfs_experiment cdag ~depth =
  let t_rank = Fmm_bilinear.Algorithm.rank (Fmm_cdag.Cdag.base_algorithm cdag) in
  let procs = Fmm_util.Combinat.pow_int t_rank depth in
  let work = Workload.of_cdag cdag in
  let assignment = bfs_assignment cdag ~depth ~procs in
  run work ~procs ~assignment
