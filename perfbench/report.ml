type job = {
  index : int;
  traced : bool;
  coverage : bool;
  wall : float;
  words : float;
  tally : Jobs.tally;
}

type metric = { name : string; unit : string; value : float }

let median = function
  | [] -> nan
  | xs ->
    let a = Array.of_list xs in
    Array.sort compare a;
    let k = Array.length a in
    if k mod 2 = 1 then a.(k / 2) else (a.((k / 2) - 1) +. a.(k / 2)) /. 2.

(* --- end to end --- *)

let end_to_end_units =
  [
    ("setup_s", "s");
    ("alloc_gwords", "Gwords");
    ("peak_rss_mb", "MiB");
    ("io_words", "words");
    ("pass_ratio", "ratio");
  ]

let checks jobs =
  List.fold_left
    (fun (a, f) j -> (a + Jobs.checks_attempted j.tally, f + Jobs.checks_failed j.tally))
    (0, 0) jobs

let end_to_end ~setups ~peak_rss_mb jobs =
  let jobs = List.filter (fun j -> not (j.traced || j.coverage)) jobs in
  let attempted, failed = checks jobs in
  let io j = Option.value ~default:0. (Jobs.count j.tally "io_words") in
  let values =
    [
      median setups;
      median (List.map (fun j -> j.words /. 1e9) jobs);
      peak_rss_mb;
      median (List.map io jobs);
      float_of_int (attempted - failed) /. float_of_int (max 1 attempted);
    ]
  in
  List.map2 (fun (name, unit) value -> { name; unit; value }) end_to_end_units values

(* --- per layer --- *)

type view = {
  self : string -> float option;
  alloc : string -> float option;
  count : string -> float option;
}

let view spans (j : job) =
  let self = Hashtbl.create 32 and alloc = Hashtbl.create 32 in
  let bump tbl k v = Hashtbl.replace tbl k (v +. Option.value ~default:0. (Hashtbl.find_opt tbl k)) in
  List.iter
    (fun ((s : Span.t), st) ->
      if s.job = j.index then begin
        bump self s.name st;
        bump alloc s.name s.words
      end)
    (Span.self_times spans);
  {
    self = Hashtbl.find_opt self;
    alloc = Hashtbl.find_opt alloc;
    count = Jobs.count j.tally;
  }

let ( let* ) = Option.bind
let per_s name = (name ^ ".s", "s", fun v -> v.self name)
let mwords name = (name ^ ".mwords", "Mwords", fun v -> Option.map (fun w -> w /. 1e6) (v.alloc name))
let count name = (name, "count", fun v -> v.count name)

let ratio name num den =
  ( name,
    "ratio",
    fun v ->
      let* a = v.count num in
      let* b = v.count den in
      if b > 0. then Some (a /. b) else None )

(* work done per second of a span's self time, scaled *)
let rate name unit scale ~work ~span =
  ( name,
    unit,
    fun v ->
      let* w = v.count work in
      let* s = v.self span in
      if s > 0. then Some (w /. s /. scale) else None )

let rl = "machine.schedulers.run_lru"
let rb = "machine.schedulers.run_belady"
let rr = "machine.schedulers.run_rematerialize"
let sx = "machine.stream_exec.run_lru"
let ai = "machine.segments.analyze_implicit"
let tc = "analysis.trace_check.check"
let il = "analysis.dataflow.implicit_order_liveness"
let vs = "exec.executor.verify_sched"
let bm = "exec.kernel.blocked_mul"
let fm = "exec.kernel.fast_mul"
let oc = "opt.optimizer.optimize_cdag"

let layer_metrics =
  [
    per_s "cdag.cdag.build";
    mwords "cdag.cdag.build";
    count "cdag.cdag.build.vertices";
    per_s "machine.orders.recursive_dfs";
    per_s rl;
    mwords rl;
    count (rl ^ ".events");
    per_s rb;
    mwords rb;
    per_s rr;
    mwords rr;
    ratio "machine.schedulers.recompute_ratio" (rr ^ ".recomputes") (rr ^ ".computes");
    per_s sx;
    mwords sx;
    ( sx ^ ".ns_per_vertex",
      "ns",
      fun v ->
        let* s = v.self sx in
        let* n = v.count (sx ^ ".vertices") in
        Some (s *. 1e9 /. n) );
    per_s ai;
    (* analyze_implicit runs its own stream LRU: the rest is the fold *)
    ( ai ^ ".fold_s",
      "s",
      fun v ->
        let* a = v.self ai in
        let* s = v.self sx in
        Some (a -. s) );
    per_s "machine.par_exec.run";
    per_s tc;
    rate (tc ^ ".mevents_per_s") "Mevents/s" 1e6 ~work:(tc ^ ".events") ~span:tc;
    per_s "analysis.dataflow.trace_profile";
    per_s "analysis.dataflow.order_liveness";
    per_s "analysis.certify.run";
    per_s il;
    mwords il;
    per_s "analysis.cdag_lint.lint_implicit";
    per_s vs;
    mwords vs;
    rate (vs ^ ".mevents_per_s") "Mevents/s" 1e6 ~work:(vs ^ ".events") ~span:vs;
    per_s bm;
    rate (bm ^ ".gflops") "GFLOP/s" 1e9 ~work:(bm ^ ".flops") ~span:bm;
    per_s fm;
    rate (fm ^ ".gflops") "GFLOP/s" 1e9 ~work:(fm ^ ".flops") ~span:fm;
    ratio "exec.kernel.fast_flop_ratio" (fm ^ ".flops") (fm ^ ".classical_flops");
    per_s "sched.generator.split_order";
    per_s "sched.generator.validate";
    count "sched.generator.crossing_words";
    per_s "sched.generator.split_implicit";
    per_s oc;
    mwords oc;
    ratio "opt.optimizer.accept_ratio" "opt.optimizer.accepted" "opt.optimizer.evaluated";
    ratio "opt.optimizer.reject_ratio" "opt.optimizer.rejected" "opt.optimizer.evaluated";
    ratio "opt.optimizer.oracle_replay_ratio" "opt.optimizer.oracle_replayed"
      "opt.optimizer.oracle_total";
  ]

let per_layer spans jobs =
  let views pred = List.map (view spans) (List.filter pred jobs) in
  let measured = views (fun j -> j.traced && not j.coverage) in
  let coverage = views (fun j -> j.coverage) in
  let walls pred = median (List.filter_map (fun j -> if pred j then Some j.wall else None) jobs) in
  let value f =
    match List.filter_map f measured with
    | _ :: _ as xs -> median xs
    | [] -> (
      match List.filter_map f coverage with x :: _ -> x | [] -> nan)
  in
  let untraced j = not (j.traced || j.coverage) in
  List.map (fun (name, unit, f) -> { name; unit; value = value f }) layer_metrics
  @ [
      { name = "wall_s"; unit = "s"; value = walls untraced };
      {
        name = "trace_overhead_s";
        unit = "s";
        value = walls (fun j -> j.traced && not j.coverage) -. walls untraced;
      };
    ]

let result_line jobs metrics =
  let attempted, failed = checks jobs in
  let finite = List.for_all (fun m -> Float.is_finite m.value) metrics in
  let fields =
    List.map
      (fun m ->
        Printf.sprintf "%S: {\"value\": %s, \"unit\": %S}" m.name
          (if Float.is_finite m.value then Printf.sprintf "%.17g" m.value else "0")
          m.unit)
      metrics
  in
  Printf.sprintf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}"
    (failed = 0 && finite) (max 1 attempted) failed (String.concat ", " fields)
