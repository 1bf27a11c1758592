(* Tests for fmm_obs: the JSON tree (emit/parse roundtrip, strictness),
   the metrics registry, the report schema (the golden contract behind
   BENCH_*.json) and the baseline diff that `fmmlab bench --baseline`
   turns into an exit code. *)

module J = Fmm_obs.Json
module M = Fmm_obs.Metrics
module Exp = Fmm_obs.Experiment
module Sink = Fmm_obs.Sink

(* --- JSON --- *)

let sample_json =
  J.Obj
    [
      ("null", J.Null);
      ("true", J.Bool true);
      ("false", J.Bool false);
      ("int", J.Int 42);
      ("neg", J.Int (-17));
      ("float", J.Float 0.1);
      ("tiny", J.Float 1e-7);
      ("big", J.Float 3.276e7);
      ("str", J.Str "hi \"there\"\nline2\tunicode \xe2\x88\x9a");
      ("list", J.List [ J.Int 1; J.Str "two"; J.List []; J.Obj [] ]);
      ("obj", J.Obj [ ("nested", J.Bool false) ]);
    ]

let test_json_roundtrip () =
  let s = J.to_string sample_json in
  Alcotest.(check bool) "roundtrip" true (J.of_string s = sample_json);
  (* emission is deterministic *)
  Alcotest.(check string) "deterministic" s (J.to_string sample_json)

let test_json_float_fidelity () =
  List.iter
    (fun x ->
      match J.of_string (J.to_string (J.Float x)) with
      | J.Float y -> Alcotest.(check (float 0.)) (string_of_float x) x y
      | J.Int y -> Alcotest.(check (float 0.)) (string_of_float x) x (float_of_int y)
      | _ -> Alcotest.fail "not a number")
    [ 0.1; -0.1; 1e-300; 1e300; 12.010203; 1. /. 3.; 0. ];
  (* JSON has no non-finite literals: they emit as null *)
  Alcotest.(check string) "nan" "null" (J.to_string (J.Float Float.nan));
  Alcotest.(check string) "inf" "null" (J.to_string (J.Float Float.infinity))

let test_json_escapes () =
  (match J.of_string {|"a\nbA\t\\"|} with
  | J.Str s -> Alcotest.(check string) "escapes" "a\nbA\t\\" s
  | _ -> Alcotest.fail "not a string");
  match J.of_string {|"é"|} with
  | J.Str s -> Alcotest.(check string) "utf8 from \\u" "\xc3\xa9" s
  | _ -> Alcotest.fail "not a string"

let test_json_rejects_malformed () =
  List.iter
    (fun s ->
      Alcotest.(check bool) (Printf.sprintf "rejects %S" s) true
        (try
           ignore (J.of_string s);
           false
         with J.Parse_error _ -> true))
    [ "{"; "[1,]"; "tru"; "1 2"; "{\"a\":}"; "\"unterminated"; ""; "{'a':1}"; "[01]" ]

let test_json_members () =
  let j = J.of_string {|{"a": {"b": [1, 2.5, "x"]}, "n": 7}|} in
  Alcotest.(check (option int)) "int member" (Some 7)
    (Option.bind (J.member "n" j) J.to_int_opt);
  Alcotest.(check bool) "missing member" true (J.member "zz" j = None);
  match Option.bind (J.member "a" j) (J.member "b") with
  | Some (J.List [ J.Int 1; J.Float f; J.Str "x" ]) ->
    Alcotest.(check (float 0.)) "2.5" 2.5 f
  | _ -> Alcotest.fail "nested list shape"

(* --- metrics registry --- *)

let test_metrics_registry () =
  let m = M.create () in
  M.incr m "hits";
  M.incr ~by:4 m "hits";
  M.gauge m "temp" 3.5;
  M.gauge m "temp" 4.5;
  let x = M.time m "work" (fun () -> 42) in
  Alcotest.(check int) "time returns body value" 42 x;
  M.rowf m ~section:"s" ~params:[ ("n", M.Int 8) ] [ ("io", M.Int 100) ];
  M.note m "a note";
  let snap = M.snapshot m in
  Alcotest.(check (option (float 0.))) "counter" (Some 5.)
    (List.assoc_opt "hits" snap);
  Alcotest.(check (option (float 0.))) "gauge overwrites" (Some 4.5)
    (List.assoc_opt "temp" snap);
  Alcotest.(check bool) "timer suffixed _s" true
    (List.mem_assoc "work_s" snap);
  Alcotest.(check int) "one row" 1 (List.length (M.rows m));
  Alcotest.(check (list string)) "notes" [ "a note" ] (M.notes m)

let test_metrics_ratio () =
  let r = M.row ~section:"s" [ ("ratio", M.Float 1.5) ] in
  Alcotest.(check (option (float 0.))) "float ratio" (Some 1.5) (M.ratio r);
  let r = M.row ~section:"s" [ ("ratio", M.Int 2) ] in
  Alcotest.(check (option (float 0.))) "int ratio" (Some 2.) (M.ratio r);
  let r = M.row ~section:"s" [ ("io", M.Int 2) ] in
  Alcotest.(check bool) "no ratio" true (M.ratio r = None)

(* --- the report schema (golden contract) --- *)

let demo_outcome () =
  Exp.run
    (Exp.define ~id:"DEMO" ~title:"demo experiment" (fun m ->
         M.incr m "steps";
         M.rowf m ~section:"sec A"
           ~params:[ ("n", M.Int 8); ("algorithm", M.Str "Strassen") ]
           [ ("measured", M.Int 120); ("bound", M.Float 100.); ("ratio", M.Float 1.2) ];
         M.rowf m ~section:"sec A"
           ~params:[ ("n", M.Int 16); ("algorithm", M.Str "Strassen") ]
           [ ("measured", M.Int 700); ("bound", M.Float 500.); ("ratio", M.Float 1.4) ];
         M.note m "hello"))

let test_report_schema () =
  let o = demo_outcome () in
  let j = Sink.report_to_json ~created:123.5 [ o ] in
  (* the golden top-level shape of BENCH_*.json *)
  Alcotest.(check (option int)) "schema_version" (Some Sink.schema_version)
    (Option.bind (J.member "schema_version" j) J.to_int_opt);
  Alcotest.(check (option string)) "generator" (Some "fmmlab bench")
    (Option.bind (J.member "generator" j) J.to_str_opt);
  Alcotest.(check (option (float 0.))) "created_unix" (Some 123.5)
    (Option.bind (J.member "created_unix" j) J.to_float_opt);
  let exp0 =
    match Option.bind (J.member "experiments" j) J.to_list_opt with
    | Some [ e ] -> e
    | _ -> Alcotest.fail "experiments list"
  in
  Alcotest.(check (option string)) "id" (Some "DEMO")
    (Option.bind (J.member "id" exp0) J.to_str_opt);
  List.iter
    (fun field ->
      Alcotest.(check bool) ("has " ^ field) true (J.member field exp0 <> None))
    [ "title"; "wall_s"; "scalars"; "rows"; "notes" ];
  let row0 =
    match Option.bind (J.member "rows" exp0) J.to_list_opt with
    | Some (r :: _) -> r
    | _ -> Alcotest.fail "rows list"
  in
  Alcotest.(check (option string)) "row section" (Some "sec A")
    (Option.bind (J.member "section" row0) J.to_str_opt);
  Alcotest.(check (option int)) "row param n" (Some 8)
    (Option.bind (Option.bind (J.member "params" row0) (J.member "n")) J.to_int_opt);
  Alcotest.(check (option (float 0.))) "row metric ratio" (Some 1.2)
    (Option.bind
       (Option.bind (J.member "metrics" row0) (J.member "ratio"))
       J.to_float_opt)

let test_report_roundtrip () =
  let o = demo_outcome () in
  let j = J.of_string (J.to_string (Sink.report_to_json ~created:1. [ o ])) in
  match Sink.outcomes_of_json j with
  | Error e -> Alcotest.fail e
  | Ok [ o' ] ->
    Alcotest.(check string) "id" o.Exp.id o'.Exp.id;
    Alcotest.(check string) "title" o.Exp.title o'.Exp.title;
    Alcotest.(check bool) "rows survive" true (o'.Exp.rows = o.Exp.rows);
    Alcotest.(check bool) "notes survive" true (o'.Exp.notes = o.Exp.notes);
    Alcotest.(check bool) "scalars survive" true
      (List.mem_assoc "steps" o'.Exp.scalars)
  | Ok _ -> Alcotest.fail "one outcome expected"

let test_report_rejects_wrong_schema () =
  (match Sink.outcomes_of_json (J.of_string {|{"schema_version": 999}|}) with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "accepted wrong version");
  match Sink.outcomes_of_json (J.of_string {|{"x": 1}|}) with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "accepted non-report"

(* --- the baseline diff --- *)

let outcome_with_ratio id ratio =
  {
    Exp.id;
    title = id;
    rows =
      [
        M.row ~section:"sec"
          ~params:[ ("n", M.Int 8) ]
          [ ("measured", M.Int 100); ("ratio", M.Float ratio) ];
      ];
    notes = [];
    scalars = [];
    wall_s = 1.0;
  }

let test_diff_clean () =
  let base = [ outcome_with_ratio "X" 1.2 ] in
  let d = Sink.diff ~tolerance:0.1 ~baseline:base ~current:base () in
  Alcotest.(check int) "compared" 1 d.Sink.n_compared;
  Alcotest.(check int) "no regressions" 0 d.Sink.n_regressions;
  Alcotest.(check int) "no improvements" 0 d.Sink.n_improvements;
  (* within tolerance: still clean *)
  let d =
    Sink.diff ~tolerance:0.1 ~baseline:base
      ~current:[ outcome_with_ratio "X" 1.25 ] ()
  in
  Alcotest.(check int) "within tolerance" 0 d.Sink.n_regressions

let test_diff_detects_regression () =
  let base = [ outcome_with_ratio "X" 1.2 ] in
  let d =
    Sink.diff ~tolerance:0.1 ~baseline:base
      ~current:[ outcome_with_ratio "X" 1.5 ] ()
  in
  Alcotest.(check int) "regression" 1 d.Sink.n_regressions;
  Alcotest.(check bool) "line names the row" true
    (List.exists
       (fun l ->
         let has sub =
           let n = String.length sub in
           let rec go i =
             i + n <= String.length l && (String.sub l i n = sub || go (i + 1))
           in
           go 0
         in
         has "REGRESSION" && has "X" && has "n=8")
       d.Sink.lines)

let test_diff_detects_improvement_and_new () =
  let base = [ outcome_with_ratio "X" 1.5 ] in
  let d =
    Sink.diff ~tolerance:0.1 ~baseline:base
      ~current:[ outcome_with_ratio "X" 1.2; outcome_with_ratio "Y" 9.9 ] ()
  in
  Alcotest.(check int) "no regressions" 0 d.Sink.n_regressions;
  Alcotest.(check int) "improvement" 1 d.Sink.n_improvements;
  Alcotest.(check int) "unmatched" 1 d.Sink.n_unmatched

let test_diff_fails_closed () =
  let base = [ outcome_with_ratio "X" 1.2 ] in
  Alcotest.(check bool) "matched rows pass" true
    (Sink.passes (Sink.diff ~tolerance:0.1 ~baseline:base ~current:base ()));
  (* a row the baseline does not cover is ungated: the gate fails *)
  let d =
    Sink.diff ~tolerance:0.1 ~baseline:base
      ~current:[ outcome_with_ratio "X" 1.2; outcome_with_ratio "Y" 1.0 ] ()
  in
  Alcotest.(check int) "no regressions" 0 d.Sink.n_regressions;
  Alcotest.(check bool) "unmatched row fails" false (Sink.passes d);
  Alcotest.(check bool) "line names the row" true
    (List.exists (fun l -> String.length l > 11 && String.sub l 2 9 = "UNMATCHED") d.Sink.lines);
  (* a whole experiment the baseline lacks fails the gate even when no
     row of it carries a ratio *)
  let no_ratio = { (outcome_with_ratio "Z" 1.0) with Exp.rows = [] } in
  let d = Sink.diff ~tolerance:0.1 ~baseline:base ~current:[ no_ratio ] () in
  Alcotest.(check int) "nothing compared" 0 d.Sink.n_compared;
  Alcotest.(check int) "experiment unmatched" 1 d.Sink.n_unmatched;
  Alcotest.(check bool) "unmatched experiment fails" false (Sink.passes d);
  Alcotest.(check (list string)) "line names the experiment"
    [ "  UNMATCHED Z (no baseline experiment)" ] d.Sink.lines

(* Int metrics other than the ratio are exact counts: equal passes, any
   change fails; an Int ratio stays tolerance-gated *)
let test_diff_exact_ints () =
  let outcome ?(ratio = M.Float 1.2) measured =
    {
      (outcome_with_ratio "X" 1.2) with
      Exp.rows =
        [
          M.row ~section:"sec"
            ~params:[ ("n", M.Int 8) ]
            [ ("measured", M.Int measured); ("ratio", ratio); ("ns/run", M.Float 3.) ];
        ];
    }
  in
  let base = [ outcome 100 ] in
  let d = Sink.diff ~tolerance:0.1 ~baseline:base ~current:[ outcome 100 ] () in
  Alcotest.(check bool) "equal counts pass" true (Sink.passes d);
  let d = Sink.diff ~tolerance:0.1 ~baseline:base ~current:[ outcome 101 ] () in
  Alcotest.(check int) "changed count regresses" 1 d.Sink.n_regressions;
  Alcotest.(check (list string)) "exact line"
    [ "  REGRESSION X|sec|n=8: measured 100 -> 101 (exact)" ] d.Sink.lines;
  (* a lower count is a difference too, not an improvement *)
  let d = Sink.diff ~tolerance:0.1 ~baseline:base ~current:[ outcome 99 ] () in
  Alcotest.(check bool) "lower count fails" false (Sink.passes d);
  (* Float metrics other than the ratio are not gated *)
  let moved =
    {
      (outcome 100) with
      Exp.rows =
        [
          M.row ~section:"sec"
            ~params:[ ("n", M.Int 8) ]
            [ ("measured", M.Int 100); ("ratio", M.Float 1.2); ("ns/run", M.Float 9.) ];
        ];
    }
  in
  Alcotest.(check bool) "float metric ungated" true
    (Sink.passes (Sink.diff ~tolerance:0.1 ~baseline:base ~current:[ moved ] ()));
  (* an Int ratio moves within the tolerance *)
  let base = [ outcome ~ratio:(M.Int 10) 100 ] in
  Alcotest.(check bool) "int ratio within tolerance" true
    (Sink.passes
       (Sink.diff ~tolerance:0.1 ~baseline:base ~current:[ outcome ~ratio:(M.Int 11) 100 ] ()));
  Alcotest.(check int) "int ratio beyond tolerance" 1
    (Sink.diff ~tolerance:0.1 ~baseline:base ~current:[ outcome ~ratio:(M.Int 12) 100 ] ())
      .Sink.n_regressions;
  (* a row with counts but no ratio is matched, and unmatched without a
     baseline row *)
  let counts_only =
    { (outcome 100) with Exp.rows = [ M.row ~section:"s2" [ ("io", M.Int 5) ] ] }
  in
  let d = Sink.diff ~tolerance:0.1 ~baseline:[ counts_only ] ~current:[ counts_only ] () in
  Alcotest.(check int) "ratio-free row compared" 1 d.Sink.n_compared;
  let d = Sink.diff ~tolerance:0.1 ~baseline:base ~current:[ counts_only ] () in
  Alcotest.(check int) "ratio-free row unmatched" 1 d.Sink.n_unmatched

let test_diff_time_gate () =
  let base = [ outcome_with_ratio "X" 1.2 ] in
  let cur = [ { (outcome_with_ratio "X" 1.2) with Exp.wall_s = 10.0 } ] in
  (* by default wall clocks are not gated *)
  let d = Sink.diff ~tolerance:0.1 ~baseline:base ~current:cur () in
  Alcotest.(check int) "no time gate by default" 0 d.Sink.n_regressions;
  let d =
    Sink.diff ~tolerance:0.1 ~time_tolerance:0.5 ~baseline:base ~current:cur ()
  in
  Alcotest.(check int) "time gate fires" 1 d.Sink.n_regressions

(* --- experiment registry --- *)

let test_registry_select () =
  let reg = Exp.Registry.create () in
  let _ = Exp.Registry.define reg ~id:"A" ~title:"a" (fun _ -> ()) in
  let _ = Exp.Registry.define reg ~id:"B" ~title:"b" (fun _ -> ()) in
  let _ = Exp.Registry.define reg ~id:"C" ~title:"c" (fun _ -> ()) in
  Alcotest.(check (list string)) "ids" [ "A"; "B"; "C" ] (Exp.Registry.ids reg);
  (match Exp.Registry.select reg (Some [ "C"; "A" ]) with
  | Ok es ->
    Alcotest.(check (list string)) "registration order kept" [ "A"; "C" ]
      (List.map Exp.id es)
  | Error e -> Alcotest.fail e);
  (match Exp.Registry.select reg (Some [ "A"; "ZZ" ]) with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "unknown id accepted");
  (* a filter that matches nothing is an error naming the known ids,
     never a silent Ok [] *)
  let contains hay needle =
    let nh = String.length hay and nn = String.length needle in
    let rec go i = i + nn <= nh && (String.sub hay i nn = needle || go (i + 1)) in
    go 0
  in
  (match Exp.Registry.select reg (Some []) with
  | Error e ->
    Alcotest.(check bool) "empty selection lists known ids" true
      (contains e "A" && contains e "B" && contains e "C")
  | Ok _ -> Alcotest.fail "empty selection accepted");
  Alcotest.check_raises "duplicate id"
    (Invalid_argument "Experiment.Registry.register: duplicate id \"A\"") (fun () ->
      ignore (Exp.Registry.define reg ~id:"A" ~title:"dup" (fun _ -> ())))

let test_bench_registry_covers_acceptance_ids () =
  let ids = Exp.Registry.ids Fmm_experiments.Experiments.registry in
  List.iter
    (fun id ->
      Alcotest.(check bool) ("registry has " ^ id) true (List.mem id ids))
    [ "T1"; "TH1seq"; "TH1par"; "RC" ]

(* --- table sink --- *)

let test_tables_group_sections () =
  let o = demo_outcome () in
  let tables = Sink.tables_of_outcome o in
  Alcotest.(check int) "one section, one table" 1 (List.length tables);
  Alcotest.(check int) "both rows in it" 2
    (Fmm_util.Table.n_rows (List.hd tables))

let () =
  Alcotest.run "fmm_obs"
    [
      ( "json",
        [
          Alcotest.test_case "roundtrip" `Quick test_json_roundtrip;
          Alcotest.test_case "float fidelity" `Quick test_json_float_fidelity;
          Alcotest.test_case "escapes" `Quick test_json_escapes;
          Alcotest.test_case "rejects malformed" `Quick test_json_rejects_malformed;
          Alcotest.test_case "members" `Quick test_json_members;
        ] );
      ( "metrics",
        [
          Alcotest.test_case "registry" `Quick test_metrics_registry;
          Alcotest.test_case "ratio" `Quick test_metrics_ratio;
        ] );
      ( "report",
        [
          Alcotest.test_case "schema" `Quick test_report_schema;
          Alcotest.test_case "roundtrip" `Quick test_report_roundtrip;
          Alcotest.test_case "rejects wrong schema" `Quick
            test_report_rejects_wrong_schema;
        ] );
      ( "diff",
        [
          Alcotest.test_case "clean" `Quick test_diff_clean;
          Alcotest.test_case "regression" `Quick test_diff_detects_regression;
          Alcotest.test_case "improvement + new" `Quick
            test_diff_detects_improvement_and_new;
          Alcotest.test_case "fails closed on unmatched rows" `Quick
            test_diff_fails_closed;
          Alcotest.test_case "exact int metrics" `Quick test_diff_exact_ints;
          Alcotest.test_case "time gate" `Quick test_diff_time_gate;
        ] );
      ( "registry",
        [
          Alcotest.test_case "select" `Quick test_registry_select;
          Alcotest.test_case "bench ids" `Quick
            test_bench_registry_covers_acceptance_ids;
          Alcotest.test_case "tables" `Quick test_tables_group_sections;
        ] );
    ]
