(* Pass 1: structural lint of bilinear CDAGs.

   The invariants checked are exactly the ones the paper's arguments
   lean on: Definition 2.1 (three-phase encode/recurse/decode
   structure, reflected here as role-consistent edges), Fact 2.1
   (bounded in-degrees — every vertex of H^{n x n} depends on at most
   max(nnz-row) predecessors, with Mult vertices on exactly their two
   encoded operands), and the hygiene conditions (acyclic, no vertex
   unreachable from the inputs, no vertex that feeds no output) that
   make dominator/segment arguments over sub-CDAGs sound.

   A clean CDAG produces an empty report; every violation is a
   separate located diagnostic, so a corrupted graph with k
   independent defects yields k findings. *)

module D = Fmm_graph.Digraph
module Cd = Fmm_cdag.Cdag
module A = Fmm_bilinear.Algorithm
module Dg = Diagnostic

let pass = "cdag-lint"

let max_row_nnz rows =
  Array.fold_left
    (fun acc row ->
      max acc
        (Array.fold_left (fun k c -> if c <> 0 then k + 1 else k) 0 row))
    0 rows

let role_name = Cd.role_to_string

(* Fact 2.1 in-degree bounds, instantiated from the base algorithm's
   U/V/W sparsity (for a 2x2 base: encoders <= 4, decoders <= t). The
   hybrid instantiation: a classical leaf's decoder sums the [cutoff]
   elementary products of one output entry, so the decoder bound is the
   max of the base W sparsity and the cutoff. *)
type bounds = { enc_a : int; enc_b : int; dec : int }

let bounds base ~cutoff =
  {
    enc_a = max_row_nnz (A.u_matrix base);
    enc_b = max_row_nnz (A.v_matrix base);
    dec = max (max_row_nnz (A.w_matrix base)) cutoff;
  }

let side_a = function Cd.Input_a _ | Cd.Enc_a -> true | _ -> false
let side_b = function Cd.Input_b _ | Cd.Enc_b -> true | _ -> false

(* The per-vertex rules of Fact 2.1 / Definition 2.1, shared by the full
   sweep and the sampled implicit lint: role-bounded in-degrees and
   role-consistent operand edges, inputs are declared sources, outputs
   are decoders (or the Mult of a 1x1 problem). [preds] lists [v]'s
   operands. *)
let check_vertex c b ~role ~is_input ~is_output ~preds v =
  let err ~code loc fmt = Dg.Collector.addf c Dg.Error ~code loc fmt in
  let indeg = List.length preds in
  let check_preds allowed =
    List.iter
      (fun p ->
        if not (allowed (role p)) then
          err ~code:"role-edge" (Dg.Edge { src = p; dst = v })
            "illegal edge: %s may not feed %s" (role_name (role p))
            (role_name (role v)))
      preds
  in
  let check_encoder ~side ~bound =
    if indeg = 0 then
      err ~code:"orphan-encoder" (Dg.Vertex v) "encoder vertex has no operands";
    if indeg > bound then
      err ~code:"degree-bound" (Dg.Vertex v)
        "Fact 2.1: enc%s in-degree %d exceeds the base-row bound %d" side indeg bound
  in
  (match role v with
  | Cd.Input_a _ | Cd.Input_b _ ->
    if indeg > 0 then
      err ~code:"input-with-preds" (Dg.Vertex v)
        "input vertex has %d in-edge(s); inputs must be sources" indeg;
    if not (is_input v) then
      err ~code:"role-mismatch" (Dg.Vertex v)
        "vertex has input role but is not in the declared input set"
  | Cd.Enc_a ->
    check_encoder ~side:"A" ~bound:b.enc_a;
    check_preds side_a
  | Cd.Enc_b ->
    check_encoder ~side:"B" ~bound:b.enc_b;
    check_preds side_b
  | Cd.Mult ->
    if indeg <> 2 then
      err ~code:"degree-bound" (Dg.Vertex v)
        "Fact 2.1: Mult vertex has %d operand(s), expected exactly 2" indeg
    else begin
      let count side = List.length (List.filter (fun p -> side (role p)) preds) in
      let a_ops = count side_a and b_ops = count side_b in
      if a_ops <> 1 || b_ops <> 1 then
        err ~code:"role-edge" (Dg.Vertex v)
          "Mult operands must be one A-side and one B-side vertex (got %d/%d)" a_ops
          b_ops
    end
  | Cd.Dec ->
    if indeg = 0 then
      err ~code:"orphan-decoder" (Dg.Vertex v) "decoder vertex has no operands";
    if indeg > b.dec then
      err ~code:"degree-bound" (Dg.Vertex v)
        "Fact 2.1: decoder in-degree %d exceeds the base-row bound %d" indeg b.dec;
    check_preds (function Cd.Mult | Cd.Dec -> true | _ -> false));
  if is_output v then
    match role v with
    | Cd.Dec | Cd.Mult -> ()
    | r ->
      err ~code:"output-role" (Dg.Vertex v)
        "output vertex has role %s; outputs must be decoders (or the Mult of a \
         degenerate 1x1 problem)"
        (role_name r)

let lint_graph ?(dec_leaf = 1) ~graph ~role ~inputs ~outputs ~base () =
  let c = Dg.Collector.create ~pass ~title:"CDAG lint" in
  let err ~code loc fmt = Dg.Collector.addf c Dg.Error ~code loc fmt in
  let warn ~code loc fmt = Dg.Collector.addf c Dg.Warning ~code loc fmt in
  let n = D.n_vertices graph in
  if not (D.is_dag graph) then
    err ~code:"cycle" Dg.Global "graph contains a cycle";
  if Array.length outputs = 0 then
    err ~code:"no-outputs" Dg.Global "CDAG has no output vertices";
  let b = bounds base ~cutoff:dec_leaf in
  let member vs =
    let set = Dataflow.Bitset.create n in
    Array.iter (fun v -> if v >= 0 && v < n then Dataflow.Bitset.add set v) vs;
    Dataflow.Bitset.mem set
  in
  let is_input = member inputs and is_output = member outputs in
  for v = 0 to n - 1 do
    check_vertex c b ~role ~is_input ~is_output ~preds:(D.in_neighbors graph v) v
  done;
  Array.iter
    (fun v ->
      match role v with
      | Cd.Input_a _ | Cd.Input_b _ -> ()
      | r ->
        err ~code:"role-mismatch" (Dg.Vertex v)
          "declared input has non-input role %s" (role_name r))
    inputs;
  (* reachability hygiene: sound sub-CDAG selection (Lemmas 2.2/3.7)
     needs every vertex on an input-to-output path — the boolean
     forward/backward instances of the Dataflow fixpoint *)
  let reach = Dataflow.reachable graph (Array.to_list inputs) in
  let coreach = Dataflow.needed graph (Array.to_list outputs) in
  for v = 0 to n - 1 do
    if not (Dataflow.Bitset.mem reach v) then
      err ~code:"unreachable" (Dg.Vertex v)
        "%s vertex unreachable from the inputs" (role_name (role v));
    if not (Dataflow.Bitset.mem coreach v) then
      warn ~code:"dead-vertex" (Dg.Vertex v)
        "%s vertex feeds no output" (role_name (role v))
  done;
  Dg.Collector.report c

let lint cdag =
  lint_graph ~dec_leaf:(Cd.cutoff cdag) ~graph:(Cd.graph cdag)
    ~role:(Cd.role cdag) ~inputs:(Cd.inputs cdag) ~outputs:(Cd.outputs cdag)
    ~base:(Cd.base_algorithm cdag) ()

(* Sampled structural lint of an implicit CDAG. A full sweep is the
   point of lint_graph and impossible at n = 256+ (40M+ vertices), so
   this pass checks (a) the closed-form census identities that must
   hold globally, and (b) the shared per-vertex rules on an id-stride
   sample plus the layout boundary ids, together with adjacency
   reciprocity and the ascending-id topological property (acyclicity
   witness: every edge goes low -> high, so no cycle can exist through
   a checked vertex). *)
let lint_implicit ?(samples = 4096) imp =
  let module Im = Fmm_cdag.Implicit in
  let c = Dg.Collector.create ~pass ~title:"implicit CDAG lint" in
  let err ~code loc fmt = Dg.Collector.addf c Dg.Error ~code loc fmt in
  let b = bounds (Im.base_algorithm imp) ~cutoff:(Im.cutoff imp) in
  let nv = Im.n_vertices imp in
  let n_inp = Im.n_inputs imp in
  let n2 = n_inp / 2 in
  (* global census identities *)
  let st = Im.stats imp in
  let get k = match List.assoc_opt k st with Some v -> v | None -> -1 in
  if
    get "inputs" + get "enc_a" + get "enc_b" + get "mult" + get "dec"
    <> get "vertices"
  then err ~code:"census" Dg.Global "role censuses do not sum to the vertex count";
  if get "inputs" <> n_inp then
    err ~code:"census" Dg.Global "input census %d <> 2 n^2 = %d" (get "inputs")
      n_inp;
  if get "outputs" <> n2 then
    err ~code:"census" Dg.Global "output census %d <> n^2 = %d" (get "outputs") n2;
  if Im.sub_output_count imp ~r:(Im.size imp) <> n2 then
    err ~code:"census" Dg.Global "root V_out count is not n^2";
  let check v =
    let preds = List.map fst (Im.preds imp v) in
    if List.length preds <> Im.in_degree imp v then
      err ~code:"degree" (Dg.Vertex v) "in_degree disagrees with enumerated preds";
    (* ascending-id topological property + reciprocity *)
    List.iter
      (fun p ->
        if p >= v then
          err ~code:"order" (Dg.Edge { src = p; dst = v })
            "edge does not go from a lower to a higher id";
        if not (List.mem v (Im.succs imp p)) then
          err ~code:"reciprocity" (Dg.Edge { src = p; dst = v })
            "pred edge not mirrored in succs")
      preds;
    List.iter
      (fun s ->
        if s <= v then
          err ~code:"order" (Dg.Edge { src = v; dst = s })
            "edge does not go from a lower to a higher id";
        if not (List.exists (fun (p, _) -> p = v) (Im.preds imp s)) then
          err ~code:"reciprocity" (Dg.Edge { src = v; dst = s })
            "succ edge not mirrored in preds")
      (Im.succs imp v);
    check_vertex c b ~role:(Im.role imp) ~is_input:(Im.is_input imp)
      ~is_output:(Im.is_output imp) ~preds v
  in
  let stride = max 1 (nv / max 1 samples) in
  let v = ref 0 in
  while !v < nv do
    check !v;
    v := !v + stride
  done;
  (* layout boundaries: first/last of each input block, the root
     subtree base, the output range start, the last vertex *)
  List.iter
    (fun v -> if v >= 0 && v < nv then check v)
    [ 0; n2 - 1; n2; n_inp - 1; n_inp; nv - n2; nv - 1 ];
  Dg.Collector.report c

(* Role-free hygiene for arbitrary workloads (pebbling instances,
   butterflies, random layered DAGs). *)
let lint_workload (work : Fmm_machine.Workload.t) =
  let c = Dg.Collector.create ~pass ~title:"workload lint" in
  let err ~code loc fmt = Dg.Collector.addf c Dg.Error ~code loc fmt in
  let warn ~code loc fmt = Dg.Collector.addf c Dg.Warning ~code loc fmt in
  let g = (Fmm_machine.Workload.graph work) in
  let n = D.n_vertices g in
  if not (D.is_dag g) then err ~code:"cycle" Dg.Global "graph contains a cycle";
  if Array.length (Fmm_machine.Workload.outputs work) = 0 then
    err ~code:"no-outputs" Dg.Global "workload has no outputs";
  let is_input = Fmm_machine.Workload.is_input work in
  for v = 0 to n - 1 do
    let indeg = D.in_degree g v in
    if is_input v then begin
      if indeg > 0 then
        err ~code:"input-with-preds" (Dg.Vertex v)
          "input vertex has %d in-edge(s)" indeg
    end
    else if indeg = 0 then
      warn ~code:"computable-source" (Dg.Vertex v)
        "non-input vertex has no operands (free constant?)"
  done;
  let reach =
    Dataflow.reachable g (Array.to_list (Fmm_machine.Workload.inputs work))
  in
  let coreach =
    Dataflow.needed g (Array.to_list (Fmm_machine.Workload.outputs work))
  in
  for v = 0 to n - 1 do
    if (not (Dataflow.Bitset.mem reach v)) && not (is_input v) then
      warn ~code:"disconnected" (Dg.Vertex v)
        "vertex unreachable from the inputs";
    if not (Dataflow.Bitset.mem coreach v) then
      warn ~code:"dead-vertex" (Dg.Vertex v) "vertex feeds no output"
  done;
  Dg.Collector.report c
