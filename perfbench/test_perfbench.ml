(* The benchmark's own tests: the span self-time fold, the memory and
   allocation probes, seed plumbing, and a smoke-size run of every
   workload through the real binary, held against BENCHMARK.json. *)

open Perfbench
module Json = Fmm_obs.Json

let check = Alcotest.check
let eps = Alcotest.float 1e-9

let span ~id ~parent ~start ~stop =
  let ns s = Int64.of_float (s *. 1e9) in
  { Span.id; name = Printf.sprintf "s%d" id; job = 0; parent; start_ns = ns start;
    stop_ns = ns stop; words = 0. }

(* root [0,10] holds a [1,4] and b [5,9]; b holds c [6,7] *)
let test_self_time_fold () =
  let spans =
    [
      span ~id:0 ~parent:(-1) ~start:0. ~stop:10.;
      span ~id:1 ~parent:0 ~start:1. ~stop:4.;
      span ~id:2 ~parent:0 ~start:5. ~stop:9.;
      span ~id:3 ~parent:2 ~start:6. ~stop:7.;
    ]
  in
  let self = List.map (fun ((s : Span.t), st) -> (s.id, st)) (Span.self_times spans) in
  List.iter
    (fun (id, want) -> check eps (Printf.sprintf "self time of span %d" id) want (List.assoc id self))
    [ (0, 3.); (1, 3.); (2, 3.); (3, 1.) ]

let test_recorder_nesting () =
  Span.clear ();
  Span.set_recording true;
  Span.set_job 7;
  Span.call "outer" (fun () ->
      Span.call "inner" ignore;
      try Span.call "raises" (fun () -> failwith "boom") with Failure _ -> ());
  Span.set_recording false;
  Span.call "untraced" ignore;
  let spans = Span.recorded () in
  Span.clear ();
  check Alcotest.(list string) "names in start order" [ "outer"; "inner"; "raises" ]
    (List.map (fun (s : Span.t) -> s.name) spans);
  let outer = List.hd spans in
  check Alcotest.int "outer is a root" (-1) outer.parent;
  List.iter
    (fun (s : Span.t) ->
      check Alcotest.int "job id" 7 s.job;
      if s.name <> "outer" then check Alcotest.int (s.name ^ " parent") outer.id s.parent)
    spans

let test_vmhwm () =
  check Alcotest.(option int) "status line" (Some 1234) (Probe.parse_vmhwm_kb "VmHWM:\t    1234 kB");
  check Alcotest.(option int) "other line" None (Probe.parse_vmhwm_kb "VmRSS:\t 99 kB");
  check Alcotest.bool "positive peak" true (Probe.peak_rss_mb () > 0.)

let spill = Option.get (Jobs.find "spill-n64")

let run_once job =
  let t = Jobs.new_tally () in
  let w0 = Probe.words () in
  job t;
  (Probe.words () -. w0, t)

let test_alloc_repeats () =
  let job = spill.prepare ~seed:1 Jobs.Smoke in
  let first, _ = run_once job in
  let second, _ = run_once job in
  check (Alcotest.float 0.) "words allocated by two runs" first second

let counts t = List.map (fun k -> (k, Jobs.count t k)) [ "io_words"; "sched.generator.crossing_words" ]

let test_seed_plumbing () =
  let _, t1 = run_once (spill.prepare ~seed:1 Jobs.Smoke) in
  let _, t2 = run_once (spill.prepare ~seed:2 Jobs.Smoke) in
  check Alcotest.int "no failed check" 0 (Jobs.checks_failed t1 + Jobs.checks_failed t2);
  check
    Alcotest.(list (pair string (option (float 0.))))
    "structural counts are seed-independent" (counts t1) (counts t2);
  let a1, _ = Jobs.operands ~seed:1 Jobs.Smoke and a2, _ = Jobs.operands ~seed:2 Jobs.Smoke in
  let a1', _ = Jobs.operands ~seed:1 Jobs.Smoke in
  check Alcotest.bool "operands differ across seeds" true
    (Fmm_exec.Kernel.max_abs_diff a1 a2 > 0.);
  check (Alcotest.float 0.) "operands repeat for one seed" 0.
    (Fmm_exec.Kernel.max_abs_diff a1 a1')

(* --- the real binary at smoke size, against BENCHMARK.json --- *)

let declared key =
  let spec = Json.of_file "../BENCHMARK.json" in
  List.map
    (fun m ->
      (Option.get (Json.to_str_opt (Option.get (Json.member "name" m))),
       Option.get (Json.to_str_opt (Option.get (Json.member "unit" m)))))
    (Option.get (Json.to_list_opt (Option.get (Json.member key spec))))

let run_smoke ~workload ~trace =
  let spans = "spans-" ^ workload ^ ".jsonl" in
  let ic =
    Unix.open_process_args_in "./main.exe"
      [| "./main.exe"; "--workload"; workload; "--seed"; "5"; "--seconds"; "0"; "--trace";
         string_of_int trace; "--size"; "smoke"; "--spans"; spans |]
  in
  let lines = In_channel.input_all ic |> String.trim |> String.split_on_char '\n' in
  check Alcotest.bool "exit 0" true (Unix.close_process_in ic = Unix.WEXITED 0);
  if Sys.file_exists spans then Sys.remove spans;
  Json.of_string (List.nth lines (List.length lines - 1))

let test_smoke workload () =
  List.iter
    (fun (trace, key) ->
      let result = run_smoke ~workload ~trace in
      let field k = Option.get (Json.member k result) in
      check Alcotest.(option bool) "correct" (Some true)
        (match field "correct" with Json.Bool b -> Some b | _ -> None);
      check Alcotest.(option int) "failed" (Some 0) (Json.to_int_opt (field "failed"));
      let metrics = field "metrics" in
      List.iter
        (fun (name, unit) ->
          let m = Json.member name metrics in
          check Alcotest.(option string) (name ^ " unit") (Some unit)
            (Option.bind m (fun m -> Option.bind (Json.member "unit" m) Json.to_str_opt));
          check Alcotest.bool (name ^ " value") true
            (Option.is_some (Option.bind m (fun m -> Option.bind (Json.member "value" m) Json.to_float_opt))))
        (declared key);
      if trace = 0 then
        check (Alcotest.option eps) "pass_ratio" (Some 1.)
          (Option.bind (Json.member "pass_ratio" metrics) (fun m ->
               Option.bind (Json.member "value" m) Json.to_float_opt)))
    [ (0, "end_to_end"); (1, "per_layer") ]

let () =
  Alcotest.run "perfbench"
    [
      ( "spans",
        [
          Alcotest.test_case "self-time fold" `Quick test_self_time_fold;
          Alcotest.test_case "recorder nesting" `Quick test_recorder_nesting;
        ] );
      ( "probes",
        [
          Alcotest.test_case "VmHWM" `Quick test_vmhwm;
          Alcotest.test_case "allocation repeats" `Quick test_alloc_repeats;
        ] );
      ("seeds", [ Alcotest.test_case "structure fixed, operands vary" `Quick test_seed_plumbing ]);
      ( "smoke",
        List.map
          (fun (w : Jobs.workload) -> Alcotest.test_case w.name `Quick (test_smoke w.name))
          Jobs.all );
    ]
