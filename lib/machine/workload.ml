(* A workload is the machine model's view of a computation: a DAG, its
   input vertices (initially in slow memory) and its output vertices
   (must end up in slow memory). Bilinear CDAGs, FFT butterflies and
   ad-hoc test DAGs all execute through this one interface.

   Two backings, one view: a materialized Digraph (with input/output
   membership bitsets built once), or an implicit CDAG whose adjacency
   and membership are arithmetic. Adjacency is always reported in
   Digraph's cons'd order, which the implicit core reproduces. *)

module D = Fmm_graph.Digraph
module Im = Fmm_cdag.Implicit
module Bits = Fmm_util.Bitset

type explicit = {
  graph : D.t;
  inputs : int array;
  outputs : int array;
  input_set : Bits.t;
  output_set : Bits.t;
}

type backing = Explicit of explicit | Implicit of Im.t
type t = { backing : backing; name : string }

let set_of n vs =
  let s = Bits.create n in
  Array.iter (Bits.add s) vs;
  s

let explicit ~name ~graph ~inputs ~outputs =
  let n = D.n_vertices graph in
  let backing =
    Explicit
      {
        graph;
        inputs;
        outputs;
        input_set = set_of n inputs;
        output_set = set_of n outputs;
      }
  in
  { backing; name }

let make ?(name = "workload") ~graph ~inputs ~outputs () =
  let n = D.n_vertices graph in
  let check v =
    if v < 0 || v >= n then invalid_arg "Workload.make: vertex out of range"
  in
  Array.iter check inputs;
  Array.iter check outputs;
  Array.iter
    (fun v ->
      if D.in_degree graph v <> 0 then
        invalid_arg "Workload.make: input vertex has predecessors")
    inputs;
  explicit ~name ~graph ~inputs ~outputs

let cdag_name alg n =
  Printf.sprintf "%s H^{%dx%d}" (Fmm_bilinear.Algorithm.name alg) n n

let of_cdag cdag =
  explicit
    ~name:(cdag_name (Fmm_cdag.Cdag.base_algorithm cdag) (Fmm_cdag.Cdag.size cdag))
    ~graph:(Fmm_cdag.Cdag.graph cdag) ~inputs:(Fmm_cdag.Cdag.inputs cdag)
    ~outputs:(Fmm_cdag.Cdag.outputs cdag)

let of_implicit imp =
  { backing = Implicit imp; name = cdag_name (Im.base_algorithm imp) (Im.size imp) }

let name t = t.name

let n_vertices t =
  match t.backing with Explicit e -> D.n_vertices e.graph | Implicit imp -> Im.n_vertices imp

let iter_preds t v ~f =
  match t.backing with
  | Explicit e -> List.iter f (D.in_neighbors e.graph v)
  | Implicit imp -> Im.iter_in_neighbors imp v ~f

let iter_succs t v ~f =
  match t.backing with
  | Explicit e -> List.iter f (D.out_neighbors e.graph v)
  | Implicit imp -> Im.iter_out_neighbors imp v ~f

let in_degree t v =
  match t.backing with Explicit e -> D.in_degree e.graph v | Implicit imp -> Im.in_degree imp v

let out_degree t v =
  match t.backing with
  | Explicit e -> D.out_degree e.graph v
  | Implicit imp -> Im.out_degree imp v

let mem set v = v >= 0 && v < Bits.capacity set && Bits.mem set v

let is_input t v =
  match t.backing with Explicit e -> mem e.input_set v | Implicit imp -> Im.is_input imp v

let is_output t v =
  match t.backing with Explicit e -> mem e.output_set v | Implicit imp -> Im.is_output imp v

let inputs t =
  match t.backing with
  | Explicit e -> e.inputs
  | Implicit imp -> Array.init (Im.n_inputs imp) Fun.id

let outputs t =
  match t.backing with Explicit e -> e.outputs | Implicit imp -> Im.outputs imp

let graph t =
  match t.backing with
  | Explicit e -> e.graph
  | Implicit _ -> invalid_arg "Workload.graph: an implicit view has no materialized graph"

let iter_ascending_order t ~f =
  let step = ref 0 in
  for v = 0 to n_vertices t - 1 do
    if not (is_input t v) then begin
      f !step v;
      incr step
    end
  done

(** Is [order] a topological enumeration of exactly the non-input
    vertices? (The contract every scheduler input must satisfy.) *)
let is_valid_order t order =
  let seen = Bits.create (n_vertices t) in
  Array.iter (Bits.add seen) (inputs t);
  let ready = ref true in
  let ok =
    List.for_all
      (fun v ->
        iter_preds t v ~f:(fun p -> if not (Bits.mem seen p) then ready := false);
        Bits.add seen v;
        !ready && not (is_input t v))
      order
  in
  ok && Bits.cardinal seen = n_vertices t
