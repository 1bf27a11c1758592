(** A message-counting distributed executor — the paper's parallel
    machine at the word level. P processors own disjoint parts of the
    DAG (owner computes); every (value, consumer-processor) pair costs
    one word transfer, counted once (re-uses hit the consumer's cache).
    Unlike the closed-form models in {!Par_model}, this executes the
    actual DAG under an explicit assignment, giving the
    memory-independent bound n^2/P^{2/omega0} a measured counterpart. *)

type result = {
  procs : int;
  sent : int array;
  received : int array;
  total_words : int;
  max_words : int;  (** max over processors of sent + received *)
}

val run : Workload.t -> procs:int -> assignment:int array -> result
(** [assignment] maps every vertex to its owning processor. Raises on
    shape/id errors or cyclic graphs. *)

val run_limited :
  Workload.t -> procs:int -> assignment:int array -> local_memory:int -> result
(** The full Section II-B parallel model: each processor caches foreign
    words in an LRU local memory of [local_memory] words; evicted words
    must be re-fetched. [local_memory = max_int] degenerates to {!run};
    tight memory drives the traffic toward the memory-dependent regime
    of Theorem 1.1. *)

val bfs_assignment : Fmm_cdag.Cdag.t -> depth:int -> procs:int -> int array
(** BFS-style partition: the t^depth recursion subtrees (with their
    operand arrays) are dealt round-robin to the processors; vertices
    above the cut and the primary inputs are dealt round-robin by id.
    Ownership of shared vertices is first-claim: subtrees are visited
    in increasing [subtree_lo] order (range, then [a_in], then [b_in])
    and the first claimant wins, so the resulting census is a
    deterministic function of the CDAG — not of iteration order. *)

val bfs_assignment_implicit :
  Fmm_cdag.Implicit.t -> depth:int -> procs:int -> int array
(** The same assignment from the implicit CDAG alone (no node list, no
    graph); {!bfs_assignment} is this sweep on [Implicit.of_cdag]. A
    [depth] outside the recursion claims no subtree: both return the
    round-robin default. *)

val sequential_assignment : Workload.t -> int array

val strassen_bfs_experiment : Fmm_cdag.Cdag.t -> depth:int -> result
(** BFS partition at [depth] on t^depth processors. *)
