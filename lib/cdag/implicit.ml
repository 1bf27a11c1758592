(* The recursion-indexed CDAG. See the .mli for the id layout; the
   short version is that a vertex id is located by walking the
   recursion tables (subtree sizes S(r), per-child chunk sizes C(r))
   from the root, peeling one tau digit per level, until the id falls
   in an encoder block, a decoder block, or a leaf Mult. Predecessors
   and successors then come straight out of the base algorithm's U/V/W
   rows and columns — the graph is never stored, and a query allocates
   nothing (see the locator below).

   Everything here must reproduce Cdag.build's allocation order
   bit-exactly: encA block then encB block then child subtree per tau,
   decoders last, decoder vertices in (p, q, i, j) loop order while the
   out array is row-major (a computable permutation between the two). *)

module A = Fmm_bilinear.Algorithm

type t = {
  base : A.t;
  n : int;
  levels : int; (* L: n = cutoff * n0^L *)
  cutoff : int; (* hybrid leaf size c: classical triple-loop leaves at r = c *)
  n0 : int;
  m0 : int;
  k0 : int;
  t_rank : int;
  u : int array array;
  v : int array array;
  w : int array array;
  size_at : int array; (* size_at.(d) = n / n0^d, d in 0..L; size_at.(L) = cutoff *)
  sub_size : int array; (* S(size_at.(d)): vertex count of a depth-d subtree *)
  chunk : int array; (* per-child chunk 2 h^2 + S(h) at depth d, d < L *)
  dec_off : int array; (* t_rank * chunk.(d): decoder block offset, d < L *)
  n2 : int;
  root_lo : int; (* 2 n^2 *)
  nv : int;
  ne : int;
  somes : int option array; (* somes.(k) = Some (some_lo + k): preds' coefficients *)
  some_lo : int;
}

let nnz_matrix m =
  Array.fold_left
    (fun acc row ->
      Array.fold_left (fun k c -> if c <> 0 then k + 1 else k) acc row)
    0 m

(* Vertex and edge counts grow like t^L: past n = 2^20 for Strassen
   they no longer fit a 63-bit int, and a wrapped count would decode
   ids against a negative layout. Every count is built from
   nonnegative sums and products, each checked. *)
let too_large () =
  invalid_arg "Implicit.create: n too large (vertex or edge count overflows an int)"

let add_ck a b = if a > max_int - b then too_large () else a + b
let mul_ck a b = if a <> 0 && b > max_int / a then too_large () else a * b

let create ?(cutoff = 1) (alg : A.t) ~n =
  let n0, m0, k0 = A.dims alg in
  if n0 <> m0 || m0 <> k0 then
    invalid_arg "Implicit.create: base case must be square";
  if not (Fmm_util.Combinat.is_power_of ~base:n0 n) then
    invalid_arg "Implicit.create: n must be a power of the base dimension";
  if cutoff < 1 then invalid_arg "Implicit.create: cutoff must be >= 1";
  if cutoff > n then invalid_arg "Implicit.create: cutoff must be <= n";
  if not (Fmm_util.Combinat.is_power_of ~base:n0 cutoff) then
    invalid_arg "Implicit.create: cutoff must be a power of the base dimension";
  let t_rank = A.rank alg in
  let u = A.u_matrix alg and v = A.v_matrix alg and w = A.w_matrix alg in
  let levels =
    let rec go l r = if r = cutoff then l else go (l + 1) (r / n0) in
    go 0 n
  in
  let size_at = Array.init (levels + 1) (fun d -> n / Fmm_util.Combinat.pow_int n0 d) in
  let sq r = mul_ck r r in
  (* a leaf subtree is one Mult (cutoff 1) or a classical triple-loop
     block: per output (i, j), cutoff Mults then one Dec — c^2 (c + 1)
     vertices allocated in that interleaved order *)
  let leaf_size = if cutoff = 1 then 1 else mul_ck (sq cutoff) (cutoff + 1) in
  let sub_size = Array.make (levels + 1) leaf_size in
  let chunk = Array.make (max levels 1) 0 in
  let dec_off = Array.make (max levels 1) 0 in
  for d = levels - 1 downto 0 do
    let r = size_at.(d) and h = size_at.(d + 1) in
    chunk.(d) <- add_ck (mul_ck 2 (sq h)) sub_size.(d + 1);
    dec_off.(d) <- mul_ck t_rank chunk.(d);
    sub_size.(d) <- add_ck dec_off.(d) (sq r)
  done;
  let n2 = sq n in
  let nv = add_ck (mul_ck 2 n2) sub_size.(0) in
  (* E(leaf) = 2 for a Mult leaf; 3 c^3 for a classical leaf (2 operand
     edges per Mult, c weighted edges per Dec) *)
  let leaf_edges = if cutoff = 1 then 2 else mul_ck 3 (mul_ck (sq cutoff) cutoff) in
  let ne =
    if levels = 0 then leaf_edges
    else begin
      let per_node = nnz_matrix u + nnz_matrix v + nnz_matrix w in
      let e = ref leaf_edges in
      (* E(r) = h^2 (nnz U + nnz V + nnz W) + t E(h) *)
      for d = levels - 1 downto 0 do
        let h = size_at.(d + 1) in
        e := add_ck (mul_ck (sq h) per_node) (mul_ck t_rank !e)
      done;
      !e
    end
  in
  (* one shared [Some c] per coefficient that can label an edge (the
     leaf decoders' 1 included), so iter_preds allocates none *)
  let c_lo = ref 1 and c_hi = ref 1 in
  List.iter
    (Array.iter (Array.iter (fun c -> c_lo := min !c_lo c; c_hi := max !c_hi c)))
    [ u; v; w ];
  let some_lo = max !c_lo (-64) in
  let somes = Array.init (min !c_hi 64 - some_lo + 1) (fun k -> Some (some_lo + k)) in
  {
    base = alg;
    n;
    levels;
    cutoff;
    n0;
    m0;
    k0;
    t_rank;
    u;
    v;
    w;
    size_at;
    sub_size;
    chunk;
    dec_off;
    n2;
    root_lo = 2 * n2;
    nv;
    ne;
    somes;
    some_lo;
  }

(* the cutoff must travel with the view: dropping it silently re-read a
   hybrid CDAG as the uniform fast one, so every id past the first
   classical leaf decoded wrong (the PR 10 differential test pins this) *)
let of_cdag cdag =
  create ~cutoff:(Cdag.cutoff cdag) (Cdag.base_algorithm cdag)
    ~n:(Cdag.size cdag)

let cutoff t = t.cutoff
let size t = t.n
let base_algorithm t = t.base
let levels t = t.levels
let n_vertices t = t.nv
let n_edges t = t.ne
let n_inputs t = 2 * t.n2
let a_inputs t = Array.init t.n2 (fun i -> i)
let b_inputs t = Array.init t.n2 (fun i -> t.n2 + i)
let is_input t id = id >= 0 && id < 2 * t.n2

let is_output t id =
  if t.levels = 0 && t.cutoff > 1 then
    (* pure classical CDAG: the root IS a classical leaf, whose out
       vertices (the Decs) are interleaved with the Mults *)
    id >= t.root_lo && id < t.nv
    && (id - t.root_lo) mod (t.cutoff + 1) = t.cutoff
  else
    (* the root's out vertices are the last n^2 allocated ids (the out
       ARRAY is a permutation of them, but as a set they are the tail) *)
    id >= t.nv - t.n2 && id < t.nv

(* --- the locator ---

   One descent from the root peels a tau digit per level until the id
   falls in an encoder block, a decoder block or a leaf, then hands the
   terminal node to a continuation as plain ints: the vertex kind, the
   node's depth d and subtree base lo, and the node's index tau_in in
   its parent (-1 at the root; inputs are the root's operand entries).
   Two query arguments ride along untouched. The rest of the node is
   arithmetic, with r = size_at d:

     a_base = lo - 2 r^2,   b_base = lo - r^2,
     parent lo = lo - 2 r^2 - tau_in * chunk (d - 1),

   and local coordinates (tau, i, j, p, q, l) are divided out where
   they are used. The descent and every continuation are top-level
   functions, so a query allocates nothing and writes nothing: one [t]
   serves any number of domains, and queries nest (the liveness sweep
   asks for successors inside a predecessor callback). *)

type kind = Inp_a | Inp_b | Enc_a | Enc_b | Mult | Dec | Leaf_mult | Leaf_dec

let rec descend t id d lo tau_in k x y =
  if d = t.levels then begin
    let kind =
      if t.cutoff = 1 then Mult
      else if (id - lo) mod (t.cutoff + 1) < t.cutoff then Leaf_mult
      else Leaf_dec
    in
    k t id kind d lo tau_in x y
  end
  else begin
    let rel = id - lo in
    if rel >= t.dec_off.(d) then k t id Dec d lo tau_in x y
    else begin
      let c = t.chunk.(d) and h = t.size_at.(d + 1) in
      let rem = rel mod c and h2 = h * h in
      if rem < h2 then k t id Enc_a d lo tau_in x y
      else if rem < 2 * h2 then k t id Enc_b d lo tau_in x y
      else descend t id (d + 1) (lo + (rel - rem) + (2 * h2)) (rel / c) k x y
    end
  end

let locate t id k x y =
  if id < 0 || id >= t.nv then
    invalid_arg (Printf.sprintf "Implicit: vertex id %d out of range" id);
  if id < t.n2 then k t id Inp_a 0 t.root_lo (-1) x y
  else if id < t.root_lo then k t id Inp_b 0 t.root_lo (-1) x y
  else descend t id 0 t.root_lo (-1) k x y

let a_base t d lo =
  let r = t.size_at.(d) in
  lo - (2 * r * r)

let b_base t d lo =
  let r = t.size_at.(d) in
  lo - (r * r)

let k_role t id kind _ _ _ () () =
  match kind with
  | Inp_a -> Cdag.Input_a id
  | Inp_b -> Cdag.Input_b (id - t.n2)
  | Enc_a -> Cdag.Enc_a
  | Enc_b -> Cdag.Enc_b
  | Mult | Leaf_mult -> Cdag.Mult
  | Dec | Leaf_dec -> Cdag.Dec

let role t id = locate t id k_role () ()

(* id of out-array entry [pos] (row-major) of the node at (d, lo) *)
let out_entry_id t ~d ~lo pos =
  if d = t.levels then
    if t.cutoff = 1 then lo else lo + (pos * (t.cutoff + 1)) + t.cutoff
  else begin
    let r = t.size_at.(d) and h = t.size_at.(d + 1) in
    let row = pos / r and col = pos mod r in
    let p = row / h and i = row mod h in
    let q = col / h and j = col mod h in
    lo + t.dec_off.(d) + ((((((p * t.k0) + q) * h) + i) * h) + j)
  end

(* --- predecessors --- *)

(* The k-th of n positions, counted from the far end when [rev]: the
   two adjacency orders are the builder's insertion order and the
   cons'd reverse that [Digraph.in_neighbors]/[out_neighbors] return.
   Plain loops over [at] keep the hot adjacency queries closure-free. *)
let at ~rev n k = if rev then n - 1 - k else k

(* Predecessors of the located vertex, each as [emit t f p c] with the
   edge coefficient c as an int (0 on a Mult operand edge): [emit] is a
   top-level adapter that turns it into what the caller's [f] takes. *)
let preds_at t id kind d lo rev emit f =
  match kind with
  | Inp_a | Inp_b -> ()
  | Mult ->
    let a = a_base t d lo and b = b_base t d lo in
    if rev then (emit t f b 0; emit t f a 0) else (emit t f a 0; emit t f b 0)
  | Leaf_mult ->
    (* a_{il} then b_{lj}, the explicit builder's operand order *)
    let c = t.cutoff and rel = id - lo in
    let opos = rel / (c + 1) and l = rel mod (c + 1) in
    let i = opos / c and j = opos mod c in
    let a = a_base t d lo + (i * c) + l and b = b_base t d lo + (l * c) + j in
    if rev then (emit t f b 0; emit t f a 0) else (emit t f a 0; emit t f b 0)
  | Leaf_dec ->
    (* output (i, j)'s c Mults are the c ids just below its Dec *)
    let c = t.cutoff in
    for k = 0 to c - 1 do
      emit t f (id - c + at ~rev c k) 1
    done
  | Enc_a | Enc_b ->
    let is_a = match kind with Enc_a -> true | _ -> false in
    let r = t.size_at.(d) and h = t.size_at.(d + 1) and ch = t.chunk.(d) in
    let rel = id - lo in
    let tau = rel / ch and rem = (rel mod ch) - if is_a then 0 else h * h in
    let i = rem / h and j = rem mod h in
    let row = (if is_a then t.u else t.v).(tau) in
    let cols0 = if is_a then t.m0 else t.k0 in
    let base = if is_a then a_base t d lo else b_base t d lo in
    let nb = Array.length row in
    for k = 0 to nb - 1 do
      let b = at ~rev nb k in
      let c = row.(b) in
      if c <> 0 then begin
        let row = ((b / cols0) * h) + i and col = ((b mod cols0) * h) + j in
        emit t f (base + (row * r) + col) c
      end
    done
  | Dec ->
    let h = t.size_at.(d + 1) in
    let alloc = id - lo - t.dec_off.(d) in
    let j = alloc mod h and rest = alloc / h in
    let i = rest mod h and pq = rest / h in
    let wrow = t.w.(pq) and first_child = lo + (2 * h * h) in
    for k = 0 to t.t_rank - 1 do
      let tau = at ~rev t.t_rank k in
      let c = wrow.(tau) in
      if c <> 0 then
        emit t f
          (out_entry_id t ~d:(d + 1) ~lo:(first_child + (tau * t.chunk.(d))) ((i * h) + j))
          c
    done

let coeff_option t c =
  let k = c - t.some_lo in
  if k >= 0 && k < Array.length t.somes then t.somes.(k) else Some c

let emit_pred t f p c = f p (if c = 0 then None else coeff_option t c)
let emit_in _ f p _ = f p
let k_preds t id kind d lo _ rev f = preds_at t id kind d lo rev emit_pred f
let k_in_neighbors t id kind d lo _ rev f = preds_at t id kind d lo rev emit_in f
let iter_preds t id ~f = locate t id k_preds false f
let iter_in_neighbors t id ~f = locate t id k_in_neighbors true f

let preds t id =
  let acc = ref [] in
  iter_preds t id ~f:(fun p c -> acc := (p, c) :: !acc);
  List.rev !acc

let in_degree t id =
  let k = ref 0 in
  iter_in_neighbors t id ~f:(fun _ -> incr k);
  !k

let edge_coeff t src dst =
  let found = ref None in
  iter_preds t dst ~f:(fun p c -> if p = src then found := c);
  !found

(* --- successors --- *)

(* consumers of operand-array entry [pos] of the node at (d, lo):
   the node's encoder vertices whose U (A side) / V (B side) row has a
   nonzero coefficient at this entry's base-case block — or the Mult
   itself at a leaf. Ascending consumer id, descending when [rev]. *)
let iter_operand_succs t ~rev ~is_a ~d ~lo pos ~f =
  if d = t.levels then begin
    if t.cutoff = 1 then f lo
    else begin
      (* classical leaf: a-entry (i, l) feeds Mult (i, j, l) for every
         j; b-entry (l, j) feeds Mult (i, j, l) for every i *)
      let c = t.cutoff in
      if is_a then begin
        let i = pos / c and l = pos mod c in
        for k = 0 to c - 1 do
          f (lo + (((i * c) + at ~rev c k) * (c + 1)) + l)
        done
      end
      else begin
        let l = pos / c and j = pos mod c in
        for k = 0 to c - 1 do
          f (lo + (((at ~rev c k * c) + j) * (c + 1)) + l)
        done
      end
    end
  end
  else begin
    let r = t.size_at.(d) and h = t.size_at.(d + 1) in
    let row = pos / r and col = pos mod r in
    let p = row / h and i = row mod h in
    let q = col / h and j = col mod h in
    let cols0 = if is_a then t.m0 else t.k0 in
    let rows = if is_a then t.u else t.v in
    let b = (p * cols0) + q in
    let off = (if is_a then 0 else h * h) + (i * h) + j in
    for k = 0 to t.t_rank - 1 do
      let tau = at ~rev t.t_rank k in
      if rows.(tau).(b) <> 0 then f (lo + (tau * t.chunk.(d)) + off)
    done
  end

(* consumers of out-array entry [pos] of the node at (d, lo), child
   [tau_in] of its parent: the parent's decoders with a nonzero W
   coefficient at column tau_in, in (p, q) order. Root out entries
   have none. *)
let iter_out_succs t ~rev ~d ~lo ~tau_in pos ~f =
  if d > 0 then begin
    let rc = t.size_at.(d) in
    let i = pos / rc and j = pos mod rc in
    let dec_base = a_base t d lo - (tau_in * t.chunk.(d - 1)) + t.dec_off.(d - 1) in
    let npq = t.n0 * t.k0 in
    for k = 0 to npq - 1 do
      let pq = at ~rev npq k in
      if t.w.(pq).(tau_in) <> 0 then f (dec_base + (((pq * rc) + i) * rc) + j)
    done
  end

let k_succs t id kind d lo tau_in rev f =
  match kind with
  | Inp_a -> iter_operand_succs t ~rev ~is_a:true ~d ~lo (id - a_base t d lo) ~f
  | Inp_b -> iter_operand_succs t ~rev ~is_a:false ~d ~lo (id - b_base t d lo) ~f
  | Enc_a | Enc_b ->
    (* operand entry [pos] of child tau, whose chunk starts at
       [child_a] and whose subtree follows its two operand blocks *)
    let h = t.size_at.(d + 1) and ch = t.chunk.(d) in
    let rel = id - lo in
    let rem = rel mod ch in
    let child_a = lo + rel - rem in
    let is_a = match kind with Enc_a -> true | _ -> false in
    let pos = if is_a then rem else rem - (h * h) in
    iter_operand_succs t ~rev ~is_a ~d:(d + 1) ~lo:(child_a + (2 * h * h)) pos ~f
  | Mult -> iter_out_succs t ~rev ~d ~lo ~tau_in 0 ~f
  | Leaf_mult ->
    (* sole consumer: the leaf Dec of its output, c + 1 ids per output *)
    let c = t.cutoff and rel = id - lo in
    f (lo + rel - (rel mod (c + 1)) + c)
  | Leaf_dec -> iter_out_succs t ~rev ~d ~lo ~tau_in ((id - lo) / (t.cutoff + 1)) ~f
  | Dec ->
    let r = t.size_at.(d) and h = t.size_at.(d + 1) in
    let alloc = id - lo - t.dec_off.(d) in
    let j = alloc mod h and rest = alloc / h in
    let i = rest mod h and pq = rest / h in
    let p = pq / t.k0 and q = pq mod t.k0 in
    iter_out_succs t ~rev ~d ~lo ~tau_in ((((p * h) + i) * r) + (q * h) + j) ~f

let iter_succs t id ~f = locate t id k_succs false f
let iter_out_neighbors t id ~f = locate t id k_succs true f

let succs t id =
  let acc = ref [] in
  iter_succs t id ~f:(fun s -> acc := s :: !acc);
  List.rev !acc

let out_degree t id =
  let k = ref 0 in
  iter_out_neighbors t id ~f:(fun _ -> incr k);
  !k

let outputs t =
  Array.init t.n2 (fun pos -> out_entry_id t ~d:0 ~lo:t.root_lo pos)

(* --- recursion nodes --- *)

type node_info = {
  depth : int;
  r : int;
  lo : int;
  hi : int;
  a_base : int;
  b_base : int;
}

let depth_of_r t ~r =
  let rec go d =
    if d > t.levels then None
    else if t.size_at.(d) = r then Some d
    else go (d + 1)
  in
  if r >= 1 then go 0 else None

let node_count_at_depth t ~depth =
  if depth < 0 || depth > t.levels then
    invalid_arg "Implicit.node_count_at_depth: bad depth";
  Fmm_util.Combinat.pow_int t.t_rank depth

let node_info_at t ~d ~lo ~a_base ~b_base =
  {
    depth = d;
    r = t.size_at.(d);
    lo;
    hi = lo + t.sub_size.(d) - 1;
    a_base;
    b_base;
  }

let iter_nodes_at_depth t ~depth ~f =
  if depth < 0 || depth > t.levels then
    invalid_arg "Implicit.iter_nodes_at_depth: bad depth";
  let rec go d lo a_base b_base =
    if d = depth then f (node_info_at t ~d ~lo ~a_base ~b_base)
    else begin
      let h = t.size_at.(d + 1) in
      let h2 = h * h in
      for tau = 0 to t.t_rank - 1 do
        let child_a = lo + (tau * t.chunk.(d)) in
        go (d + 1) (child_a + (2 * h2)) child_a (child_a + h2)
      done
    end
  in
  go 0 t.root_lo 0 t.n2

let node_of_path t path =
  let depth = Array.length path in
  if depth > t.levels then invalid_arg "Implicit.node_of_path: path too deep";
  let d = ref 0 and lo = ref t.root_lo and a_base = ref 0 and b_base = ref t.n2 in
  Array.iter
    (fun tau ->
      if tau < 0 || tau >= t.t_rank then
        invalid_arg "Implicit.node_of_path: tau digit out of range";
      let h = t.size_at.(!d + 1) in
      let child_a = !lo + (tau * t.chunk.(!d)) in
      a_base := child_a;
      b_base := child_a + (h * h);
      lo := child_a + (2 * h * h);
      incr d)
    path;
  node_info_at t ~d:!d ~lo:!lo ~a_base:!a_base ~b_base:!b_base

let out_entry t nd pos = out_entry_id t ~d:nd.depth ~lo:nd.lo pos

let sub_node_count t ~r =
  match depth_of_r t ~r with
  | None -> 0
  | Some d -> node_count_at_depth t ~depth:d

let sub_output_count t ~r = sub_node_count t ~r * r * r
let sub_input_count t ~r = 2 * sub_output_count t ~r

let sub_outputs t ~r =
  match depth_of_r t ~r with
  | None -> []
  | Some depth ->
    let acc = ref [] in
    iter_nodes_at_depth t ~depth ~f:(fun nd ->
        for pos = (r * r) - 1 downto 0 do
          acc := out_entry t nd pos :: !acc
        done);
    List.rev !acc

let sub_inputs t ~r =
  match depth_of_r t ~r with
  | None -> []
  | Some depth ->
    let acc = ref [] in
    iter_nodes_at_depth t ~depth ~f:(fun nd ->
        for pos = (r * r) - 1 downto 0 do
          acc := (nd.b_base + pos) :: !acc
        done;
        for pos = (r * r) - 1 downto 0 do
          acc := (nd.a_base + pos) :: !acc
        done);
    List.rev !acc

let k_sub_output t _ kind d _ _ r () =
  match kind with Mult | Dec | Leaf_dec -> t.size_at.(d) = r | _ -> false

let is_sub_output t ~r id = locate t id k_sub_output r ()

(* --- censuses --- *)

let stats t =
  let pow = Fmm_util.Combinat.pow_int in
  let enc_each = ref 0 and dec = ref 0 in
  for d = 0 to t.levels - 1 do
    let h = t.size_at.(d + 1) and r = t.size_at.(d) in
    enc_each := !enc_each + (pow t.t_rank (d + 1) * h * h);
    dec := !dec + (pow t.t_rank d * r * r)
  done;
  let leaves = pow t.t_rank t.levels in
  let c = t.cutoff in
  let mult = leaves * (if c = 1 then 1 else c * c * c) in
  let dec = !dec + if c = 1 then 0 else leaves * c * c in
  [
    ("vertices", t.nv);
    ("edges", t.ne);
    ("inputs", 2 * t.n2);
    ("enc_a", !enc_each);
    ("enc_b", !enc_each);
    ("mult", mult);
    ("dec", dec);
    ("outputs", t.n2);
  ]

(* --- CSR expansion --- *)

type csr = {
  lo : int;
  hi : int;
  row_off : int array;
  cols : int array;
  weights : int array;
}

let csr_preds t ~lo ~hi =
  if lo < 0 || hi > t.nv || lo > hi then
    invalid_arg "Implicit.csr_preds: bad id range";
  let rows = hi - lo in
  let row_off = Array.make (rows + 1) 0 in
  for id = lo to hi - 1 do
    row_off.(id - lo + 1) <- row_off.(id - lo) + in_degree t id
  done;
  let total = row_off.(rows) in
  let cols = Array.make total 0 and weights = Array.make total 0 in
  let cursor = ref 0 in
  for id = lo to hi - 1 do
    iter_preds t id ~f:(fun p c ->
        cols.(!cursor) <- p;
        weights.(!cursor) <- (match c with Some c -> c | None -> 0);
        incr cursor)
  done;
  { lo; hi; row_off; cols; weights }

(* --- bridges to the explicit representation --- *)

let to_digraph t =
  let g = Fmm_graph.Digraph.create ~capacity:(max t.nv 1) () in
  ignore (Fmm_graph.Digraph.add_vertices g t.nv);
  (* ascending consumer id, predecessors in builder operand order:
     reproduces the explicit builder's global edge-insertion order, so
     both cons'd adjacency directions come out identical *)
  for id = 0 to t.nv - 1 do
    iter_preds t id ~f:(fun p _ -> Fmm_graph.Digraph.add_edge g p id)
  done;
  g

let to_explicit t =
  let g = Fmm_graph.Digraph.create ~capacity:(max t.nv 1) () in
  ignore (Fmm_graph.Digraph.add_vertices g t.nv);
  let coeffs = Hashtbl.create 1024 in
  for id = 0 to t.nv - 1 do
    iter_preds t id ~f:(fun p c ->
        Fmm_graph.Digraph.add_edge g p id;
        match c with Some c -> Hashtbl.replace coeffs (p, id) c | None -> ())
  done;
  let roles = Array.init t.nv (fun id -> role t id) in
  (* nodes in the builder's list order: each node is prepended at
     completion (children before parent), so replay the same DFS *)
  let nodes = ref [] in
  let rec build_node d lo a_base b_base =
    let r = t.size_at.(d) in
    (if d < t.levels then begin
       let h = t.size_at.(d + 1) in
       let h2 = h * h in
       for tau = 0 to t.t_rank - 1 do
         let child_a = lo + (tau * t.chunk.(d)) in
         build_node (d + 1) (child_a + (2 * h2)) child_a (child_a + h2)
       done
     end);
    let node =
      {
        Cdag.r;
        depth = d;
        a_in = Array.init (r * r) (fun i -> a_base + i);
        b_in = Array.init (r * r) (fun i -> b_base + i);
        out = Array.init (r * r) (fun pos -> out_entry_id t ~d ~lo pos);
        subtree_lo = lo;
        subtree_hi = lo + t.sub_size.(d) - 1;
      }
    in
    nodes := node :: !nodes
  in
  build_node 0 t.root_lo 0 t.n2;
  Cdag.of_parts ~cutoff:t.cutoff ~graph:g ~roles ~n:t.n ~base:t.base
    ~a_inputs:(a_inputs t)
    ~b_inputs:(b_inputs t) ~outputs:(outputs t) ~nodes:!nodes ~coeffs ()
