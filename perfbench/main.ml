(* The benchmark's entry point: one workload per process, closed loop,
   every library call at jobs 1. Usage in README.md. *)

open Perfbench

let setup_reps = 21

let usage =
  "main.exe --workload NAME --seed N --seconds S --trace 0|1 [--size full|smoke] [--spans FILE]\n\
   workloads: "
  ^ String.concat ", " (List.map (fun (w : Jobs.workload) -> w.name) Jobs.all)

let run_job ~name ~index ~traced ~coverage job =
  Span.set_job index;
  Span.set_recording traced;
  let tally = Jobs.new_tally () in
  let w0 = Probe.words () and t0 = Probe.now_ns () in
  (try Span.call ("job." ^ name) (fun () -> job tally)
   with e -> Jobs.check tally (name ^ ": exception " ^ Printexc.to_string e) false);
  let wall = Probe.seconds_between t0 (Probe.now_ns ()) in
  let words = Probe.words () -. w0 in
  Span.set_recording false;
  List.iter (fun f -> prerr_endline ("check failed: " ^ f)) (Jobs.failures tally);
  Gc.compact ();
  { Report.index; traced; coverage; wall; words; tally }

let () =
  let entry = Probe.now_ns () in
  let workload = ref "" and seed = ref 1 and seconds = ref 10. and trace = ref 0 in
  let size = ref Jobs.Full and spans = ref "" in
  Arg.parse
    [
      ("--workload", Arg.Set_string workload, "NAME workload to run");
      ("--seed", Arg.Set_int seed, "N seed of every generated input");
      ("--seconds", Arg.Set_float seconds, "S length of the measured phase");
      ("--trace", Arg.Int (fun t -> trace := t), "0|1 record per-layer spans");
      ( "--size",
        Arg.Symbol
          ([ "full"; "smoke" ], fun s -> size := if s = "smoke" then Jobs.Smoke else Jobs.Full),
        " input sizes (smoke: the test suite's)" );
      ("--spans", Arg.Set_string spans, "FILE where a traced run writes its spans");
    ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    usage;
  let wl =
    match Jobs.find !workload with
    | Some w when !trace = 0 || !trace = 1 -> w
    | _ ->
      prerr_endline usage;
      exit 2
  in
  let trace = !trace = 1 and seed = !seed and size = !size in
  (* Set-up: algorithm lookup, seeded operand generation, GC settle.
     The first repetition is timed from process entry. *)
  let setups = ref [] and job = ref (fun _ -> ()) and t0 = ref entry in
  for _ = 1 to setup_reps do
    job := wl.prepare ~seed size;
    Gc.compact ();
    let t1 = Probe.now_ns () in
    setups := Probe.seconds_between !t0 t1 :: !setups;
    t0 := t1
  done;
  (* Closed loop: jobs back to back while another one fits in the
     measured phase; always at least one (a traced run: at least one
     untraced/traced pair). *)
  let start = Probe.now_ns () in
  let rec loop acc k =
    let traced = trace && k mod 2 = 1 in
    let acc = run_job ~name:wl.name ~index:k ~traced ~coverage:false !job :: acc in
    let k = k + 1 in
    let per_job = Report.median (List.map (fun (j : Report.job) -> j.wall) acc) in
    let next = if trace then 2. *. per_job else per_job in
    let elapsed = Probe.seconds_between start (Probe.now_ns ()) in
    if (trace && k mod 2 = 1) || elapsed +. next <= !seconds then loop acc k
    else List.rev acc
  in
  let measured = loop [] 0 in
  (* A traced run also runs every other workload once at smoke size, so
     every per-layer metric has a value; the workload's own spans take
     precedence. *)
  let coverage =
    if not trace then []
    else
      List.filter (fun (w : Jobs.workload) -> w.name <> wl.name) Jobs.all
      |> List.mapi (fun i (w : Jobs.workload) ->
             run_job ~name:w.name ~index:(1000 + i) ~traced:true ~coverage:true
               (w.prepare ~seed Jobs.Smoke))
  in
  let jobs = measured @ coverage in
  let metrics =
    if trace then begin
      let recorded = Span.recorded () in
      let path =
        if !spans <> "" then !spans
        else Printf.sprintf ".perfbench/spans-%s-seed%d.jsonl" wl.name seed
      in
      Span.write_jsonl path recorded;
      Report.per_layer recorded jobs
    end
    else Report.end_to_end ~setups:!setups ~peak_rss_mb:(Probe.peak_rss_mb ()) jobs
  in
  Printf.printf "workload %s, seed %d, %d measured jobs%s\n" wl.name seed
    (List.length measured)
    (if trace then Printf.sprintf ", %d coverage jobs" (List.length coverage) else "");
  List.iter
    (fun (j : Report.job) ->
      Printf.printf "  job %d%s: wall %.4f s\n" j.index (if j.traced then " (traced)" else "") j.wall)
    measured;
  List.iter
    (fun (m : Report.metric) -> Printf.printf "  %-52s %16.6f %s\n" m.name m.value m.unit)
    metrics;
  print_endline (Report.result_line jobs metrics)
