(* The complete CDAG of Algorithm 1 (alternative-basis matrix
   multiplication): the Kronecker-power basis transforms phi(A), psi(B)
   as explicit log(n)-level circuits, the bilinear core's H^{n x n},
   and the inverse transform nu^-1 on the result — one workload whose
   machine-model execution covers the WHOLE pipeline, so the Theorem
   4.1 premise (transform I/O negligible) can be observed on real
   simulated schedules rather than from operation counts alone.

   Each transform level mixes one bit position of the row and column
   indices through the 4x4 base map (the Kronecker power factorizes
   level by level); a stitch edge (coefficient 1, a copy) connects the
   last transform level to the core's input vertices. *)

type stage = Phi | Psi | Core | Nu_inv

let stage_to_string = function
  | Phi -> "phi"
  | Psi -> "psi"
  | Core -> "core"
  | Nu_inv -> "nu-inv"

type t = {
  graph : Fmm_graph.Digraph.t;
  n : int;
  a_inputs : int array;
  b_inputs : int array;
  outputs : int array;
  stage_of : stage array; (* stage of every non-(A/B-)input vertex *)
  is_mult : bool array;
  coeffs : (int * int, int) Hashtbl.t;
  is_primary_input : bool array;
}

(* Build the log(n)-level Kronecker-power circuit of [base] (a 4x4
   integer map on 2x2 block structure) applied to an n x n value whose
   current entry vertices are [entries] (row-major). Returns the final
   level's vertex ids. *)
let transform_levels g ~roles ~coeffs ~stage ~base ~n entries =
  let levels = Fmm_util.Combinat.log2_exact n in
  let current = ref (Array.copy entries) in
  for l = 0 to levels - 1 do
    let next = Array.make (n * n) (-1) in
    for i = 0 to n - 1 do
      for j = 0 to n - 1 do
        let bi = (i lsr l) land 1 and bj = (j lsr l) land 1 in
        let v = Fmm_graph.Digraph.add_vertex g in
        Fmm_util.Vec.push roles stage;
        let row = base.((2 * bi) + bj) in
        Array.iteri
          (fun col c ->
            if c <> 0 then begin
              let p = col / 2 and q = col mod 2 in
              let src_i = (i land lnot (1 lsl l)) lor (p lsl l) in
              let src_j = (j land lnot (1 lsl l)) lor (q lsl l) in
              let src = !current.((src_i * n) + src_j) in
              Fmm_graph.Digraph.add_edge g src v;
              Hashtbl.replace coeffs (src, v) c
            end)
          row;
        next.((i * n) + j) <- v
      done
    done;
    current := next
  done;
  !current

let build (ab : Fmm_bilinear.Alt_basis.t) ~n =
  let core_alg = Fmm_bilinear.Alt_basis.core ab in
  let n0, m0, k0 = Fmm_bilinear.Algorithm.dims core_alg in
  if (n0, m0, k0) <> (2, 2, 2) then
    invalid_arg "Abmm_cdag.build: 2x2 cores only";
  if not (Fmm_util.Combinat.is_power_of ~base:2 n) then
    invalid_arg "Abmm_cdag.build: n must be a power of two";
  let g = Fmm_graph.Digraph.create ~capacity:1024 () in
  let roles = Fmm_util.Vec.create ~dummy:Core in
  let coeffs = Hashtbl.create 1024 in
  (* primary inputs *)
  let a_inputs =
    Array.init (n * n) (fun _ ->
        let v = Fmm_graph.Digraph.add_vertex g in
        Fmm_util.Vec.push roles Phi;
        v)
  in
  let b_inputs =
    Array.init (n * n) (fun _ ->
        let v = Fmm_graph.Digraph.add_vertex g in
        Fmm_util.Vec.push roles Psi;
        v)
  in
  (* forward transforms *)
  let phi_out =
    transform_levels g ~roles ~coeffs ~stage:Phi
      ~base:(Fmm_bilinear.Alt_basis.phi ab) ~n a_inputs
  in
  let psi_out =
    transform_levels g ~roles ~coeffs ~stage:Psi
      ~base:(Fmm_bilinear.Alt_basis.psi ab) ~n b_inputs
  in
  (* core H^{n x n}: build separately, copy into g, stitch *)
  let core = Fmm_cdag.Cdag.build core_alg ~n in
  let core_n = Fmm_cdag.Cdag.n_vertices core in
  let offset = Fmm_graph.Digraph.n_vertices g in
  let mult_pending = ref [] in
  for v = 0 to core_n - 1 do
    let id = Fmm_graph.Digraph.add_vertex g in
    Fmm_util.Vec.push roles Core;
    (match Fmm_cdag.Cdag.role core v with
    | Fmm_cdag.Cdag.Mult -> mult_pending := id :: !mult_pending
    | _ -> ());
    assert (id = offset + v)
  done;
  let core_graph = Fmm_cdag.Cdag.graph core in
  for v = 0 to core_n - 1 do
    List.iter
      (fun w ->
        Fmm_graph.Digraph.add_edge g (offset + v) (offset + w);
        match Fmm_cdag.Cdag.edge_coeff core v w with
        | Some c -> Hashtbl.replace coeffs (offset + v, offset + w) c
        | None -> ())
      (Fmm_graph.Digraph.out_neighbors core_graph v)
  done;
  (* stitch: transform outputs feed the core's (copied) input vertices *)
  Array.iteri
    (fun idx src ->
      let dst = offset + (Fmm_cdag.Cdag.a_inputs core).(idx) in
      Fmm_graph.Digraph.add_edge g src dst;
      Hashtbl.replace coeffs (src, dst) 1)
    phi_out;
  Array.iteri
    (fun idx src ->
      let dst = offset + (Fmm_cdag.Cdag.b_inputs core).(idx) in
      Fmm_graph.Digraph.add_edge g src dst;
      Hashtbl.replace coeffs (src, dst) 1)
    psi_out;
  (* inverse transform on the core's outputs *)
  let core_out = Array.map (fun v -> offset + v) (Fmm_cdag.Cdag.outputs core) in
  let outputs =
    transform_levels g ~roles ~coeffs ~stage:Nu_inv
      ~base:(Fmm_bilinear.Alt_basis.nu_inv ab) ~n core_out
  in
  let total = Fmm_graph.Digraph.n_vertices g in
  let stage_of = Fmm_util.Vec.to_array roles in
  let is_mult = Array.make total false in
  List.iter (fun v -> is_mult.(v) <- true) !mult_pending;
  let is_primary_input = Array.make total false in
  Array.iter (fun v -> is_primary_input.(v) <- true) a_inputs;
  Array.iter (fun v -> is_primary_input.(v) <- true) b_inputs;
  { graph = g; n; a_inputs; b_inputs; outputs; stage_of; is_mult; coeffs;
    is_primary_input }

let workload t =
  Fmm_machine.Workload.make
    ~name:(Printf.sprintf "ABMM %dx%d" t.n t.n)
    ~graph:t.graph
    ~inputs:(Array.append t.a_inputs t.b_inputs)
    ~outputs:t.outputs ()

let stage_census t =
  let counts = [ (Phi, ref 0); (Psi, ref 0); (Core, ref 0); (Nu_inv, ref 0) ] in
  Array.iteri
    (fun v s -> if not t.is_primary_input.(v) then incr (List.assoc s counts))
    t.stage_of;
  List.map (fun (s, r) -> (stage_to_string s, !r)) counts

(** Share of Compute events per stage in a trace (the Theorem 4.1
    premise, measured on the executed schedule). *)
let stage_compute_shares t (trace : Fmm_machine.Trace.t) =
  let module Tr = Fmm_machine.Trace in
  let index = function Phi -> 0 | Psi -> 1 | Core -> 2 | Nu_inv -> 3 in
  let counts = Array.make 4 0 in
  for i = 0 to Tr.length trace - 1 do
    let c = Tr.code trace i in
    match Tr.kind c with
    | `Compute ->
      let k = index t.stage_of.(Tr.vertex c) in
      counts.(k) <- counts.(k) + 1
    | `Load | `Store | `Evict -> ()
  done;
  let all = Array.fold_left ( + ) 0 counts in
  List.map
    (fun s ->
      let c = counts.(index s) in
      (stage_to_string s, c, if all = 0 then 0. else float_of_int c /. float_of_int all))
    [ Phi; Psi; Core; Nu_inv ]

(* --- semantic evaluation --- *)

module Eval (R : Fmm_ring.Sig_ring.S) = struct
  (** Evaluate the full ABMM circuit; the result must equal vec(A.B). *)
  let run t (a_vals : R.t array) (b_vals : R.t array) =
    if Array.length a_vals <> t.n * t.n || Array.length b_vals <> t.n * t.n
    then invalid_arg "Abmm_cdag.Eval.run: input length mismatch";
    let order =
      match Fmm_graph.Digraph.topo_sort t.graph with
      | Some o -> o
      | None -> failwith "Abmm_cdag.Eval.run: cycle"
    in
    let values = Array.make (Fmm_graph.Digraph.n_vertices t.graph) R.zero in
    Array.iteri (fun i v -> values.(v) <- a_vals.(i)) t.a_inputs;
    Array.iteri (fun i v -> values.(v) <- b_vals.(i)) t.b_inputs;
    List.iter
      (fun v ->
        if not t.is_primary_input.(v) then
          if t.is_mult.(v) then begin
            match Fmm_graph.Digraph.in_neighbors t.graph v with
            | [ x; y ] -> values.(v) <- R.mul values.(x) values.(y)
            | _ -> failwith "Abmm_cdag.Eval.run: malformed mult vertex"
          end
          else begin
            let acc = ref R.zero in
            List.iter
              (fun src ->
                let c = Hashtbl.find t.coeffs (src, v) in
                acc := R.add !acc (R.mul (R.of_int c) values.(src)))
              (Fmm_graph.Digraph.in_neighbors t.graph v);
            values.(v) <- !acc
          end)
      order;
    Array.map (fun v -> values.(v)) t.outputs
end

module Eval_q = Eval (Fmm_ring.Rat.Field)
