(* Pass 3: the parallel race detector.

   An owner-computes execution is described by (assignment, order):
   every vertex is computed by its owner, at its position in the
   global order; a cross-processor edge u -> v is a message from
   owner(u), sent when u is computed. The pass checks the whole
   description statically:

   - assignment shape: length, unowned (negative) and out-of-range
     processor ids;
   - order shape: exactly the non-input vertices, no duplicates;
   - dependences: an edge whose consumer precedes its producer is a
     use-before-compute when both ends share a processor, and a
     read-before-send RACE when they do not — the consumer would read
     a word its owner has not yet sent;
   - capacity lint: ownership imbalance and the hottest
     owner->consumer channel of the communication matrix (whose word
     counts replicate Par_exec.run's dedup rule: one word per distinct
     (value, consumer) pair). *)

module W = Fmm_machine.Workload
module D = Fmm_graph.Digraph
module Dg = Diagnostic

type result = {
  report : Dg.report;
  owned : int array;
  words : int array array;
  total_words : int;
  races : int;
}

let pass = "par-check"

let phased_order (work : W.t) ~procs ~assignment =
  let g = W.graph work in
  let is_input = W.is_input work in
  let topo =
    match D.topo_sort g with
    | Some o -> o
    | None -> List.init (W.n_vertices work) (fun v -> v)
  in
  let computable = List.filter (fun v -> not (is_input v)) topo in
  let bucket p v =
    Array.length assignment > v && assignment.(v) = p
  in
  let phases =
    List.concat_map
      (fun p -> List.filter (bucket p) computable)
      (List.init procs (fun p -> p))
  in
  let stragglers =
    List.filter
      (fun v ->
        v >= Array.length assignment
        || assignment.(v) < 0
        || assignment.(v) >= procs)
      computable
  in
  phases @ stragglers

let check ?order (work : W.t) ~procs ~assignment =
  let c = Dg.Collector.create ~pass ~title:"parallel race check" in
  let err ~code loc fmt = Dg.Collector.addf c Dg.Error ~code loc fmt in
  let warn ~code loc fmt = Dg.Collector.addf c Dg.Warning ~code loc fmt in
  let info ~code loc fmt = Dg.Collector.addf c Dg.Info ~code loc fmt in
  let g = W.graph work in
  let n = W.n_vertices work in
  let is_input = W.is_input work in
  let procs = max procs 0 in
  if procs = 0 then err ~code:"no-procs" Dg.Global "processor count is zero";
  if Array.length assignment <> n then
    err ~code:"shape" Dg.Global
      "assignment length %d does not match the %d workload vertices"
      (Array.length assignment) n;
  let owner v =
    if v < Array.length assignment then Some assignment.(v) else None
  in
  let owned = Array.make (max procs 1) 0 in
  for v = 0 to n - 1 do
    match owner v with
    | None ->
      err ~code:"unowned" (Dg.Vertex v) "vertex %d has no owning processor" v
    | Some p when p < 0 ->
      err ~code:"unowned" (Dg.Vertex v)
        "vertex %d is unowned (processor id %d)" v p
    | Some p when p >= procs ->
      err ~code:"out-of-range" (Dg.Vertex v)
        "vertex %d assigned to processor %d, but only %d processor(s) exist"
        v p procs
    | Some p -> owned.(p) <- owned.(p) + 1
  done;
  (* order shape: exactly the non-input vertices, once each *)
  let order =
    match order with
    | Some o -> o
    | None -> (
      match D.topo_sort g with
      | Some o -> List.filter (fun v -> not (is_input v)) o
      | None ->
        err ~code:"cycle" Dg.Global
          "workload graph is cyclic; no execution order exists";
        [])
  in
  let pos = Array.make n (-1) in
  List.iteri
    (fun i v ->
      if v < 0 || v >= n then
        err ~code:"bad-vertex" (Dg.Step { step = i; vertex = Some v })
          "order position %d references vertex %d outside [0, %d)" i v n
      else begin
        if pos.(v) >= 0 then
          err ~code:"duplicate-schedule" (Dg.Step { step = i; vertex = Some v })
            "vertex %d scheduled twice (positions %d and %d)" v pos.(v) i;
        if is_input v then
          err ~code:"schedule-input" (Dg.Step { step = i; vertex = Some v })
            "input vertex %d appears in the compute order" v;
        pos.(v) <- i
      end)
    order;
  for v = 0 to n - 1 do
    if (not (is_input v)) && pos.(v) < 0 then
      err ~code:"never-scheduled" (Dg.Vertex v)
        "vertex %d is never scheduled" v
  done;
  (* dependence / race scan + communication census *)
  let valid_proc p = p >= 0 && p < procs in
  let words = Array.make_matrix (max procs 1) (max procs 1) 0 in
  let total_words = ref 0 in
  let races = ref 0 in
  let seen_transfer = Hashtbl.create 1024 in
  for v = 0 to n - 1 do
    if not (is_input v) then
      List.iter
        (fun u ->
          let pu = owner u and pv = owner v in
          (match (pu, pv) with
          | Some pu, Some pv
            when valid_proc pu && valid_proc pv && pu <> pv ->
            if not (Hashtbl.mem seen_transfer (u, pv)) then begin
              Hashtbl.add seen_transfer (u, pv) ();
              words.(pu).(pv) <- words.(pu).(pv) + 1;
              incr total_words
            end
          | _ -> ());
          (* an input is available at its owner from the start *)
          if (not (is_input u)) && pos.(v) >= 0 then
            if pos.(u) < 0 || pos.(u) >= pos.(v) then begin
              let cross =
                match (pu, pv) with
                | Some pu, Some pv -> pu <> pv
                | _ -> false
              in
              if cross then begin
                incr races;
                let pu = Option.get pu and pv = Option.get pv in
                if pos.(u) < 0 then
                  err ~code:"race" (Dg.Edge { src = u; dst = v })
                    "read-before-send: processor %d reads vertex %d to \
                     compute vertex %d (position %d) but owner processor %d \
                     never computes it"
                    pv u v pos.(v) pu
                else
                  err ~code:"race" (Dg.Edge { src = u; dst = v })
                    "read-before-send: processor %d reads vertex %d at \
                     position %d (computing vertex %d) before owner \
                     processor %d computes it at position %d"
                    pv u pos.(v) v pu pos.(u)
              end
              else
                err ~code:"use-before-compute" (Dg.Edge { src = u; dst = v })
                  "vertex %d (position %d) uses vertex %d which is %s" v
                  pos.(v) u
                  (if pos.(u) < 0 then "never computed"
                   else Printf.sprintf "only computed at position %d" pos.(u))
            end)
        (D.in_neighbors g v)
  done;
  (* ownership imbalance *)
  if procs > 1 && Array.length assignment = n && n >= procs then begin
    let maxp = ref 0 in
    Array.iteri (fun p k -> if k > owned.(!maxp) then maxp := p) owned;
    let mean = float_of_int n /. float_of_int procs in
    let mx = float_of_int owned.(!maxp) in
    if mx > 1.5 *. mean && owned.(!maxp) - (n / procs) > 1 then
      warn ~code:"ownership-imbalance" (Dg.Processor !maxp)
        "processor %d owns %d of %d vertices (%.1fx the mean %.1f)" !maxp
        owned.(!maxp) n (mx /. mean) mean
  end;
  (* hottest communication channel *)
  if !total_words > 0 then begin
    let hp = ref 0 and hq = ref 0 in
    for p = 0 to procs - 1 do
      for q = 0 to procs - 1 do
        if words.(p).(q) > words.(!hp).(!hq) then begin
          hp := p;
          hq := q
        end
      done
    done;
    info ~code:"comm-hotspot" (Dg.Processor !hp)
      "hottest channel: processor %d -> %d carries %d of %d words (%.0f%%)"
      !hp !hq
      words.(!hp).(!hq)
      !total_words
      (100. *. float_of_int words.(!hp).(!hq) /. float_of_int !total_words)
  end;
  {
    report = Dg.Collector.report c;
    owned;
    words;
    total_words = !total_words;
    races = !races;
  }

(* --- fault-aware replay validation --- *)

(* The static [check] above validates a fault-free (assignment, order)
   description, where "u was computed before v" is the whole story. A
   recovered execution is richer: processors crash (losing every word
   they hold except their own durable inputs), values are re-computed
   and re-sent, and a read is legal iff a live copy is present at the
   reader AT THAT EVENT — position comparison cannot express this.
   [check_log] therefore replays the executor's own event log against
   per-processor holdings: the read-before-send rule under failures. *)

type ev =
  | Compute of { vertex : int; proc : int }
  | Transfer of { value : int; src : int; dst : int }
  | Crash of { proc : int }

type replay = {
  report : Dg.report;
  computes : int;
  transfers : int;
  crashes : int;
  lost_outputs : int;
}

let replay_pass = "par-replay"

let check_log (work : W.t) ~procs ~assignment ~log =
  let c = Dg.Collector.create ~pass:replay_pass ~title:"fault replay check" in
  let err ~code loc fmt = Dg.Collector.addf c Dg.Error ~code loc fmt in
  let g = W.graph work in
  let n = W.n_vertices work in
  let is_input = W.is_input work in
  let procs = max procs 0 in
  if procs = 0 then err ~code:"no-procs" Dg.Global "processor count is zero";
  if Array.length assignment <> n then
    err ~code:"shape" Dg.Global
      "assignment length %d does not match the %d workload vertices"
      (Array.length assignment) n;
  let valid_proc p = p >= 0 && p < procs in
  let owner v =
    if v >= 0 && v < Array.length assignment then Some assignment.(v) else None
  in
  (* holds.(p) = values processor p currently has a live copy of.
     Owners hold their own input values durably: initial operand data
     survives a crash (it is re-readable), unlike computed words. *)
  let holds : (int, unit) Hashtbl.t array =
    Array.init (max procs 1) (fun _ -> Hashtbl.create 64)
  in
  let own_inputs = Array.make (max procs 1) [] in
  Array.iter
    (fun v ->
      match owner v with
      | Some p when valid_proc p ->
        own_inputs.(p) <- v :: own_inputs.(p);
        Hashtbl.replace holds.(p) v ()
      | _ -> ())
    (W.inputs work);
  let ever_computed = Array.make (max n 1) false in
  let computes = ref 0 and transfers = ref 0 and crashes = ref 0 in
  List.iteri
    (fun step ev ->
      match ev with
      | Compute { vertex = v; proc = p } -> (
        incr computes;
        if v < 0 || v >= n then
          err ~code:"bad-vertex" (Dg.Step { step; vertex = Some v })
            "compute event references vertex %d outside [0, %d)" v n
        else if not (valid_proc p) then
          err ~code:"bad-proc" (Dg.Step { step; vertex = Some v })
            "vertex %d computed on invalid processor %d" v p
        else if is_input v then
          err ~code:"compute-input" (Dg.Step { step; vertex = Some v })
            "input vertex %d appears as a compute event" v
        else
          match owner v with
          | Some ow when ow <> p ->
            err ~code:"not-owner" (Dg.Step { step; vertex = Some v })
              "vertex %d computed on processor %d, but owner-computes \
               assigns it to %d"
              v p ow
          | _ ->
            List.iter
              (fun u ->
                if not (Hashtbl.mem holds.(p) u) then
                  err ~code:"race" (Dg.Edge { src = u; dst = v })
                    "read-before-send: processor %d computes vertex %d at \
                     event %d without a live copy of operand %d (owner %d)"
                    p v step u
                    (match owner u with Some q -> q | None -> -1))
              (D.in_neighbors g v);
            Hashtbl.replace holds.(p) v ();
            ever_computed.(v) <- true)
      | Transfer { value = u; src; dst } ->
        incr transfers;
        if u < 0 || u >= n then
          err ~code:"bad-vertex" (Dg.Step { step; vertex = Some u })
            "transfer event references vertex %d outside [0, %d)" u n
        else if not (valid_proc src && valid_proc dst) then
          err ~code:"bad-proc" (Dg.Step { step; vertex = Some u })
            "transfer of vertex %d between invalid processors %d -> %d" u src
            dst
        else if src = dst then
          err ~code:"self-transfer" (Dg.Step { step; vertex = Some u })
            "processor %d transfers vertex %d to itself" src u
        else begin
          if not (Hashtbl.mem holds.(src) u) then
            err ~code:"send-unheld" (Dg.Step { step; vertex = Some u })
              "processor %d sends vertex %d it does not hold (lost in a \
               crash, or never computed/received)"
              src u;
          Hashtbl.replace holds.(dst) u ()
        end
      | Crash { proc = p } ->
        incr crashes;
        if not (valid_proc p) then
          err ~code:"bad-proc" (Dg.Step { step; vertex = None })
            "crash event names invalid processor %d" p
        else begin
          Hashtbl.reset holds.(p);
          List.iter (fun v -> Hashtbl.replace holds.(p) v ()) own_inputs.(p)
        end)
    log;
  for v = 0 to n - 1 do
    if (not (is_input v)) && not ever_computed.(v) then
      err ~code:"never-computed" (Dg.Vertex v)
        "vertex %d is never computed by any event" v
  done;
  let lost = ref 0 in
  Array.iter
    (fun v ->
      match owner v with
      | Some p when valid_proc p ->
        if not (Hashtbl.mem holds.(p) v) then begin
          incr lost;
          err ~code:"lost-output" (Dg.Vertex v)
            "output vertex %d is not held by its owner %d when the log ends \
             (lost in a crash and never recovered)"
            v p
        end
      | _ -> ())
    (W.outputs work);
  {
    report = Dg.Collector.report c;
    computes = !computes;
    transfers = !transfers;
    crashes = !crashes;
    lost_outputs = !lost;
  }
