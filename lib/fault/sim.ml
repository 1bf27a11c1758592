(* Fault injection and recomputation-based recovery on the word-level
   distributed executor. The sweep mirrors Par_exec.run — owner
   computes, one transfer per (value, consumer) pair, unlimited local
   memory — and layers a crash/recovery state machine on top:

     crash p     wipe p's foreign-word cache; un-compute p's owned
                 non-input vertices (owned inputs are durable);
     recovery    on demand, when the sweep next needs a lost word —
                 re-derive at the owner (Recompute_local), pull from
                 the smallest-id surviving holder (Refetch_owner,
                 Replicate), or fall back to re-derivation when no
                 copy survives anywhere.

   Everything the simulator does is appended to an event log
   (Par_check.ev list) so the analysis layer can replay the recovered
   run independently: Par_check.check_log accepts the log iff every
   read had a live local copy at that event and every output survived
   to its owner — the read-before-send rule under failures. *)

module W = Fmm_machine.Workload
module D = Fmm_graph.Digraph
module PC = Fmm_analysis.Par_check

type policy = Recompute_local | Refetch_owner | Replicate of int

let policy_name = function
  | Recompute_local -> "recompute"
  | Refetch_owner -> "refetch"
  | Replicate k -> Printf.sprintf "replicate-%d" k

let policy_of_string s =
  match String.lowercase_ascii (String.trim s) with
  | "recompute" | "recompute-local" | "recompute_local" -> Some Recompute_local
  | "refetch" | "refetch-owner" | "refetch_owner" -> Some Refetch_owner
  | s -> (
    let tail pfx =
      if String.length s > String.length pfx
         && String.sub s 0 (String.length pfx) = pfx
      then int_of_string_opt (String.sub s (String.length pfx)
                                (String.length s - String.length pfx))
      else None
    in
    match (tail "replicate-", tail "replicate:") with
    | Some k, _ | _, Some k -> Some (Replicate k)
    | None, None -> None)

type event = { proc : int; step : int }

type report = {
  procs : int;
  policy : policy;
  seed : int;
  assignment : int array;
  failures : event list;
  sent : int array;
  received : int array;
  total_words : int;
  max_words : int;
  replication_words : int;
  recovery_words : int;
  recomputed : int;
  baseline_total : int;
  baseline_max : int;
  overhead_total : float;
  overhead_max : float;
  bound : float option;
  bound_ratio : float option;
  log : PC.ev list;
}

(* Each crash event draws its (processor, step) from its own derived
   stream, so the schedule is a pure function of (seed, index) — it
   does not depend on procs/steps iteration order, and adding a
   failure never perturbs the earlier ones. *)
let derive_failures ~procs ~steps ~fail ~seed =
  if procs < 1 then invalid_arg "Fault.derive_failures: procs < 1";
  if fail < 0 then invalid_arg "Fault.derive_failures: fail < 0";
  if steps <= 0 then []
  else
    List.init fail (fun i ->
        let t =
          Fmm_util.Prng.create ~seed:(Fmm_util.Prng.derive ~seed [ 0xFA; i ])
        in
        let proc = Fmm_util.Prng.int t procs in
        let step = Fmm_util.Prng.int t steps in
        { proc; step })
    |> List.sort (fun a b -> compare (a.step, a.proc) (b.step, b.proc))

let run (work : W.t) ~procs ~assignment ~policy ~failures ?bound ?(seed = 0) ()
    =
  let g = W.graph work in
  let n = W.n_vertices work in
  if procs < 1 then invalid_arg "Fault.run: procs < 1";
  if Array.length assignment <> n then
    invalid_arg "Fault.run: assignment length mismatch";
  Array.iter
    (fun p ->
      if p < 0 || p >= procs then invalid_arg "Fault.run: bad processor id")
    assignment;
  (match policy with
  | Replicate k when k < 1 || k > procs ->
    invalid_arg "Fault.run: Replicate k outside [1, procs]"
  | _ -> ());
  let is_input = W.is_input work in
  let order =
    match D.topo_sort g with
    | Some o -> List.filter (fun v -> not (is_input v)) o
    | None -> invalid_arg "Fault.run: not a DAG"
  in
  let steps = List.length order in
  List.iter
    (fun e ->
      if e.proc < 0 || e.proc >= procs then
        invalid_arg "Fault.run: failure names an invalid processor";
      if e.step < 0 || e.step >= steps then
        invalid_arg "Fault.run: failure step outside the sweep")
    failures;
  (* fault-free reference for the overhead ratios *)
  let baseline = Fmm_machine.Par_exec.run work ~procs ~assignment in
  let sent = Array.make procs 0 and received = Array.make procs 0 in
  let total = ref 0 in
  let replication_words = ref 0 and recovery_words = ref 0 in
  let recomputed = ref 0 in
  let log = ref [] in
  (* computed.(v): the OWNER currently holds non-input v (true from its
     computation until the owner's next crash, restored by recovery).
     cache.(p): foreign words p holds — received copies and replicas. *)
  let computed = Array.make n false in
  let cache : (int, unit) Hashtbl.t array =
    Array.init procs (fun _ -> Hashtbl.create 64)
  in
  let owned_nonirr = Array.make procs [] in
  Array.iteri
    (fun v p -> if not (is_input v) then owned_nonirr.(p) <- v :: owned_nonirr.(p))
    assignment;
  (* transfers made while a re-derivation is in flight are recovery
     traffic even when the (value, consumer) pair is fresh *)
  let recovery_depth = ref 0 in
  let replicas v =
    match policy with
    | Replicate k when k > 1 ->
      List.init (k - 1) (fun i -> (assignment.(v) + i + 1) mod procs)
    | _ -> []
  in
  let transfer ~kind src dst u =
    sent.(src) <- sent.(src) + 1;
    received.(dst) <- received.(dst) + 1;
    incr total;
    (match kind with
    | `Replication -> incr replication_words
    | `Recovery -> incr recovery_words
    | `Normal -> if !recovery_depth > 0 then incr recovery_words);
    if dst = assignment.(u) then computed.(u) <- true
    else Hashtbl.replace cache.(dst) u ();
    log := PC.Transfer { value = u; src; dst } :: !log
  in
  (* smallest-id survivor holding a live copy of a LOST value u: never
     the owner (it lost it) — a past consumer or a replica *)
  let surviving_holder u =
    let rec scan p =
      if p >= procs then None
      else if Hashtbl.mem cache.(p) u then Some p
      else scan (p + 1)
    in
    scan 0
  in
  let rec ensure p u =
    let ow = assignment.(u) in
    if ow = p then begin
      if (not (is_input u)) && not computed.(u) then recover_own p u
    end
    else if not (Hashtbl.mem cache.(p) u) then
      if is_input u || computed.(u) then transfer ~kind:`Normal ow p u
      else begin
        (* the owner lost u and a consumer needs it *)
        match policy with
        | Recompute_local ->
          rederive ow u;
          transfer ~kind:`Recovery ow p u
        | Refetch_owner | Replicate _ -> (
          match surviving_holder u with
          | Some q -> transfer ~kind:`Recovery q p u
          | None ->
            rederive ow u;
            transfer ~kind:`Recovery ow p u)
      end
  and recover_own p u =
    (* p needs its own lost value back *)
    match policy with
    | Recompute_local -> rederive p u
    | Refetch_owner | Replicate _ -> (
      match surviving_holder u with
      | Some q -> transfer ~kind:`Recovery q p u
      | None -> rederive p u)
  and rederive p u =
    (* recompute the lost value at its owner: free in words (the owner
       owns the computation), but every foreign operand the wiped cache
       no longer holds is a charged re-fetch — recursively, lost own
       operands re-derive first *)
    incr recovery_depth;
    List.iter (ensure p) (D.in_neighbors g u);
    computed.(u) <- true;
    incr recomputed;
    log := PC.Compute { vertex = u; proc = p } :: !log;
    decr recovery_depth
  in
  let crash p =
    Hashtbl.reset cache.(p);
    List.iter (fun v -> computed.(v) <- false) owned_nonirr.(p);
    log := PC.Crash { proc = p } :: !log
  in
  let failures_at = Array.make (max steps 1) [] in
  List.iter
    (fun e -> failures_at.(e.step) <- failures_at.(e.step) @ [ e.proc ])
    failures;
  List.iteri
    (fun i v ->
      List.iter crash failures_at.(i);
      let p = assignment.(v) in
      List.iter (ensure p) (D.in_neighbors g v);
      computed.(v) <- true;
      log := PC.Compute { vertex = v; proc = p } :: !log;
      List.iter (fun r -> transfer ~kind:`Replication p r v) (replicas v))
    order;
  (* a late crash can wipe outputs no later step demands; outputs must
     end resident at their owner, so close with a recovery pass *)
  Array.iter
    (fun v ->
      if (not (is_input v)) && not computed.(v) then
        recover_own assignment.(v) v)
    (W.outputs work);
  let max_words = ref 0 in
  for p = 0 to procs - 1 do
    max_words := max !max_words (sent.(p) + received.(p))
  done;
  let ratio meas base =
    if base > 0. then meas /. base else if meas > 0. then infinity else 1.0
  in
  let baseline_total = baseline.Fmm_machine.Par_exec.total_words in
  let baseline_max = baseline.Fmm_machine.Par_exec.max_words in
  {
    procs;
    policy;
    seed;
    assignment = Array.copy assignment;
    failures;
    sent;
    received;
    total_words = !total;
    max_words = !max_words;
    replication_words = !replication_words;
    recovery_words = !recovery_words;
    recomputed = !recomputed;
    baseline_total;
    baseline_max;
    overhead_total = ratio (float_of_int !total) (float_of_int baseline_total);
    overhead_max =
      ratio (float_of_int !max_words) (float_of_int baseline_max);
    bound;
    bound_ratio = Option.map (fun b -> float_of_int !max_words /. b) bound;
    log = List.rev !log;
  }

let simulate (work : W.t) ~procs ~assignment ~policy ~fail ~seed ?bound () =
  let steps =
    let is_input = W.is_input work in
    match D.topo_sort (W.graph work) with
    | Some o -> List.length (List.filter (fun v -> not (is_input v)) o)
    | None -> invalid_arg "Fault.simulate: not a DAG"
  in
  let failures = derive_failures ~procs ~steps ~fail ~seed in
  run work ~procs ~assignment ~policy ~failures ?bound ~seed ()

let check (work : W.t) (r : report) =
  PC.check_log work ~procs:r.procs ~assignment:r.assignment ~log:r.log
