(* COSMA-style schedule generation: contiguous splits of sequential
   orders and (p1, p2, p3) grid decompositions, both emitting
   Par_exec-compatible owner-computes assignments. The splitting
   objective is the executor's own charging rule — one word per
   (value, consuming processor) pair with consumer <> owner — kept
   exact at every step of the local search by an incremental census
   rather than re-measured per candidate move. *)

module W = Fmm_machine.Workload
module PE = Fmm_machine.Par_exec
module PM = Fmm_machine.Par_model
module DG = Fmm_graph.Digraph
module DF = Fmm_analysis.Dataflow
module PC = Fmm_analysis.Par_check
module Cd = Fmm_cdag.Cdag
module Im = Fmm_cdag.Implicit

type split = {
  procs : int;
  order : int array;
  cuts : int array;
  assignment : int array;
  crossing : int;
}

(* --- exact crossing census ---

   cnt maps (value u) * procs + (part q) to the number of u's consumers
   owned by q; the census is sum over u of |{q <> owner u : cnt > 0}|.
   Entries are only ever created for realized (u, q) pairs, so the
   table holds at most one entry per edge and in practice ~one per
   value. *)

let find cnt key = try Hashtbl.find cnt key with Not_found -> 0

let census w ~procs asg =
  let cnt = Hashtbl.create 4096 in
  let total = ref 0 in
  let g = W.graph w in
  let is_input = W.is_input w in
  for v = 0 to W.n_vertices w - 1 do
    if not (is_input v) then
      List.iter
        (fun u ->
          let key = (u * procs) + asg.(v) in
          let c = find cnt key in
          if c = 0 && asg.(u) <> asg.(v) then incr total;
          Hashtbl.replace cnt key (c + 1))
        (DG.in_neighbors g v)
  done;
  (cnt, total)

(* Move non-input vertex [v] from part [src] to part [dst], updating the
   census in O(in-degree) hash operations; returns the census delta.
   Two effects: v's operand reads leave src and join dst, and v's own
   consumers now read from a dst-owned value. The move is its own
   inverse (apply with src/dst swapped), which is how rejected probes
   are undone. *)
let apply_move cnt total g ~procs asg v ~src ~dst =
  let delta = ref 0 in
  (* ownership change of v itself: src's consumers of v (if any) become
     foreign, dst's become local *)
  if find cnt ((v * procs) + src) > 0 then incr delta;
  if find cnt ((v * procs) + dst) > 0 then decr delta;
  List.iter
    (fun u ->
      let ks = (u * procs) + src and kd = (u * procs) + dst in
      let cs = find cnt ks in
      if cs = 1 then begin
        Hashtbl.remove cnt ks;
        if asg.(u) <> src then decr delta
      end
      else Hashtbl.replace cnt ks (cs - 1);
      let cd = find cnt kd in
      if cd = 0 && asg.(u) <> dst then incr delta;
      Hashtbl.replace cnt kd (cd + 1))
    (DG.in_neighbors g v);
  asg.(v) <- dst;
  total := !total + !delta;
  !delta

let split_order ?(rounds = 4) w ~procs order =
  if procs < 1 then invalid_arg "Generator.split_order: procs < 1";
  let live = DF.order_liveness w order in
  let g = W.graph w in
  let len = Array.length order in
  let n = W.n_vertices w in
  (* seed each cut at the liveness minimum near the balanced position:
     few values resident across the boundary means few candidate
     crossing words *)
  let cuts = Array.make (procs + 1) 0 in
  cuts.(procs) <- len;
  let window = max 1 (len / (4 * procs)) in
  for k = 1 to procs - 1 do
    (* keep parts non-empty whenever len >= procs *)
    let lo0 = cuts.(k - 1) + (if len >= procs then 1 else 0) in
    let hi0 = if len >= procs then len - (procs - k) else len in
    let target = max lo0 (min (k * len / procs) hi0) in
    let lo = max lo0 (target - window) and hi = min hi0 (target + window) in
    let best = ref target and best_live = ref max_int in
    for c = lo to hi do
      let l = if c < len then live.DF.live_at.(c) else 0 in
      if l < !best_live then begin
        best_live := l;
        best := c
      end
    done;
    cuts.(k) <- !best
  done;
  let part_of_pos = Array.make (max len 1) 0 in
  let fill_parts () =
    for k = 0 to procs - 1 do
      for i = cuts.(k) to cuts.(k + 1) - 1 do
        part_of_pos.(i) <- k
      done
    done
  in
  fill_parts ();
  let asg = Array.make n 0 in
  Array.iteri (fun i v -> asg.(v) <- part_of_pos.(i)) order;
  let snap_inputs () =
    Array.iter
      (fun u ->
        let fu = live.DF.first_use.(u) in
        asg.(u) <- (if fu >= 0 then part_of_pos.(fu) else 0))
      (W.inputs w)
  in
  snap_inputs ();
  let cnt, total = census w ~procs asg in
  (* boundary-shift local search: move one vertex across a cut, keep
     the move iff the exact census strictly drops. Input owners stay
     pinned during the search (re-snapped to their first consumer's
     part afterwards — which never increases the census, since any
     consuming part is an optimal owner). Strict improvement plus a
     hard move budget guarantees termination. *)
  (* a move at boundary k only re-shapes parts k-1 and k, so it can
     only unlock further moves at boundaries k-1, k, k+1: process a
     dirty-boundary worklist instead of re-sweeping every boundary
     after each accepted move (the sweep version was quadratic in the
     accepted-move count) *)
  let budget = ref (rounds * (len + 1)) in
  let on_queue = Array.make (procs + 1) false in
  let queue = Queue.create () in
  let push k =
    if k >= 1 && k <= procs - 1 && not on_queue.(k) then begin
      on_queue.(k) <- true;
      Queue.push k queue
    end
  in
  for k = 1 to procs - 1 do
    push k
  done;
  while (not (Queue.is_empty queue)) && !budget > 0 do
    let k = Queue.pop queue in
    on_queue.(k) <- false;
    let moving = ref true and moved_any = ref false in
    while !moving && !budget > 0 do
      moving := false;
      decr budget;
      (* grow part k-1 by the first vertex of part k *)
      if cuts.(k) + 1 < cuts.(k + 1) then begin
        let v = order.(cuts.(k)) in
        if apply_move cnt total g ~procs asg v ~src:k ~dst:(k - 1) < 0 then begin
          cuts.(k) <- cuts.(k) + 1;
          moving := true
        end
        else ignore (apply_move cnt total g ~procs asg v ~src:(k - 1) ~dst:k)
      end;
      (* grow part k by the last vertex of part k-1 *)
      if (not !moving) && cuts.(k) - 1 > cuts.(k - 1) then begin
        let v = order.(cuts.(k) - 1) in
        if apply_move cnt total g ~procs asg v ~src:(k - 1) ~dst:k < 0 then begin
          cuts.(k) <- cuts.(k) - 1;
          moving := true
        end
        else ignore (apply_move cnt total g ~procs asg v ~src:k ~dst:(k - 1))
      end;
      if !moving then moved_any := true
    done;
    if !moved_any then begin
      push (k - 1);
      push (k + 1)
    end
  done;
  fill_parts ();
  snap_inputs ();
  (* final exact census from scratch: the incremental total is only
     valid for the pinned input owners *)
  let _, crossing = census w ~procs asg in
  {
    procs;
    order = Array.copy order;
    cuts;
    assignment = asg;
    crossing = !crossing;
  }

let split_implicit imp ~procs =
  if procs < 1 || procs > 62 then
    invalid_arg "Generator.split_implicit: procs must be in [1, 62]";
  (* The result's two O(V) arrays are 91 MB at Strassen n = 128. A
     dropped previous result stays allocated until the collector ends
     a cycle begun after it died, which the light allocation of a
     streaming pipeline seldom drives (one Gc.compact is not enough on
     OCaml 5.1), so two back-to-back stream-n128 perfbench jobs
     peaked at 147-150 MiB where one peaks at 95. Finishing the
     pending cycles first frees it before the new arrays are written
     (103 MiB over three jobs). *)
  Gc.full_major ();
  let nv = Im.n_vertices imp in
  let ni = Im.n_inputs imp in
  let len = nv - ni in
  (* ascending id is the canonical topological order; non-input ids are
     exactly [ni, nv), so equal-size contiguous parts are id ranges *)
  let cuts = Array.init (procs + 1) (fun k -> k * len / procs) in
  let part_of_pos i =
    (* binary search: largest k with cuts.(k) <= i *)
    let lo = ref 0 and hi = ref procs in
    while !hi - !lo > 1 do
      let mid = (!lo + !hi) / 2 in
      if cuts.(mid) <= i then lo := mid else hi := mid
    done;
    !lo
  in
  let asg = Array.make nv 0 in
  for v = ni to nv - 1 do
    asg.(v) <- part_of_pos (v - ni)
  done;
  (* per value, the bitmask of the parts that consume it, from its
     successors; an input goes to its lowest consuming part *)
  let popcount m =
    let c = ref 0 and m = ref m in
    while !m <> 0 do
      m := !m land (!m - 1);
      incr c
    done;
    !c
  in
  let lowest_bit m =
    let b = ref 0 in
    while m land (1 lsl !b) = 0 do
      incr b
    done;
    !b
  in
  let mask = ref 0 in
  let consume s = mask := !mask lor (1 lsl asg.(s)) in
  let total = ref 0 in
  for u = 0 to nv - 1 do
    mask := 0;
    Im.iter_succs imp u ~f:consume;
    let m = !mask in
    if m <> 0 then begin
      if u < ni then asg.(u) <- lowest_bit m;
      total := !total + popcount m - (if m land (1 lsl asg.(u)) <> 0 then 1 else 0)
    end
  done;
  {
    procs;
    order = Array.init len (fun i -> ni + i);
    cuts;
    assignment = asg;
    crossing = !total;
  }

let of_trace w trace =
  let module Tr = Fmm_machine.Trace in
  let module Bits = Fmm_util.Bitset in
  let seen = Bits.create (W.n_vertices w) in
  let order = Fmm_util.Vec.create ~dummy:0 in
  for i = 0 to Tr.length trace - 1 do
    let c = Tr.code trace i in
    let v = Tr.vertex c in
    match Tr.kind c with
    | `Compute when not (Bits.mem seen v) ->
      Bits.add seen v;
      Fmm_util.Vec.push order v
    | _ -> ()
  done;
  Fmm_util.Vec.to_array order

let exec_log w ~procs ~assignment =
  let g = W.graph w in
  let topo =
    match DG.topo_sort g with
    | Some t -> t
    | None -> invalid_arg "Generator.exec_log: cyclic graph"
  in
  let sent = Hashtbl.create 1024 in
  let log = ref [] in
  let is_input = W.is_input w in
  List.iter
    (fun v ->
      if not (is_input v) then begin
        let p = assignment.(v) in
        List.iter
          (fun u ->
            let q = assignment.(u) in
            if q <> p then begin
              let key = (u * procs) + p in
              if not (Hashtbl.mem sent key) then begin
                Hashtbl.add sent key ();
                log := PC.Transfer { value = u; src = q; dst = p } :: !log
              end
            end)
          (DG.in_neighbors g v);
        log := PC.Compute { vertex = v; proc = p } :: !log
      end)
    topo;
  List.rev !log

let validate w ~procs ~assignment =
  PC.check_log w ~procs ~assignment ~log:(exec_log w ~procs ~assignment)

let memind_bound ?omega0 cdag ~procs =
  let omega0 =
    match omega0 with
    | Some o -> o
    | None -> Fmm_bilinear.Algorithm.omega0 (Cd.base_algorithm cdag)
  in
  Fmm_bounds.Bounds.fast_memind ~omega0 ~n:(Cd.size cdag) ~p:procs ()

(* --- (p1, p2, p3) grids --- *)

let grid_candidates ~p =
  if p < 1 then invalid_arg "Generator.grid_candidates: P < 1";
  let out = ref [] in
  for p1 = p downto 1 do
    if p mod p1 = 0 then begin
      let q = p / p1 in
      for p2 = q downto 1 do
        if q mod p2 = 0 then out := (p1, p2, q / p2) :: !out
      done
    end
  done;
  !out

let grid_assignment cdag ~procs ~grid:(p1, p2, p3) =
  let n = Cd.size cdag in
  if Cd.cutoff cdag <> n then
    invalid_arg
      "Generator.grid_assignment: CDAG must be pure classical (cutoff = n)";
  (* degenerate grids (product <> procs, factors < 1) are rejected here
     with Par_model's diagnostic *)
  ignore (PM.grid_3d ~n ~p:procs (p1, p2, p3));
  let nv = Cd.n_vertices cdag in
  let asg = Array.make nv 0 in
  if n > 1 then begin
    let blk i pk = i * pk / n in
    let proc c1 c2 c3 = ((c1 * p2) + c2) * p3 + c3 in
    let ni = n * n in
    for v = 0 to nv - 1 do
      if v < ni then begin
        (* A input (i, l): lives with its brick row, layer of l *)
        let i = v / n and l = v mod n in
        asg.(v) <- proc (blk i p1) 0 (blk l p3)
      end
      else if v < 2 * ni then begin
        (* B input (l, j) *)
        let r = v - ni in
        let l = r / n and j = r mod n in
        asg.(v) <- proc 0 (blk j p2) (blk l p3)
      end
      else begin
        (* classical root subtree: per output (i, j) row-major, n Mults
           (l = 0..n-1) then one Dec — the PR 9 leaf layout *)
        let rel = v - (2 * ni) in
        let opos = rel / (n + 1) and within = rel mod (n + 1) in
        let i = opos / n and j = opos mod n in
        if within < n then
          asg.(v) <- proc (blk i p1) (blk j p2) (blk within p3)
        else
          (* the reduction result: layer 0 of the (i, j) brick *)
          asg.(v) <- proc (blk i p1) (blk j p2) 0
      end
    done
  end;
  asg

let grid_search cdag ~procs =
  let w = W.of_cdag cdag in
  let n = Cd.size cdag in
  let best = ref None in
  List.iter
    (fun grid ->
      let cost = PM.grid_3d ~n ~p:procs grid in
      let asg = grid_assignment cdag ~procs ~grid in
      let r = PE.run w ~procs ~assignment:asg in
      match !best with
      | Some (_, _, (br : PE.result), _) when br.PE.total_words <= r.PE.total_words
        ->
        ()
      | _ -> best := Some (grid, cost, r, asg))
    (grid_candidates ~p:procs);
  match !best with
  | Some x -> x
  | None -> assert false
