(* Sinks for experiment outcomes. The outcome is pure data; this module
   holds every formatting decision:

   - [tables_of_outcome] / [print_outcome]: the classic bench output —
     rows grouped by section into Fmm_util.Table boxes, notes after.
   - [report_to_json] / [outcomes_of_json]: the machine-readable
     BENCH_*.json schema (schema_version 1) and its loader.
   - [diff]: the regression gate — match rows of two runs on
     (experiment, section, params), compare their "ratio" metrics
     within a tolerance and every other Int metric for equality, and
     optionally the per-experiment wall clocks. The caller turns
     [n_regressions > 0] into an exit code. *)

module T = Fmm_util.Table

(* --- tables --- *)

(* Group rows by section, preserving first-appearance order. *)
let sections rows =
  let rec go seen = function
    | [] -> []
    | r :: rest ->
      if List.mem r.Metrics.section seen then go seen rest
      else
        let s = r.Metrics.section in
        (s, List.filter (fun r' -> r'.Metrics.section = s) rows)
        :: go (s :: seen) rest
  in
  go [] rows

(* Header = union of param keys then metric keys, each in
   first-appearance order across the section's rows. *)
let keys_of project rows =
  List.fold_left
    (fun acc r ->
      List.fold_left
        (fun acc (k, _) -> if List.mem k acc then acc else acc @ [ k ])
        acc (project r))
    [] rows

let table_of_section ~title (section, rows) =
  let param_keys = keys_of (fun r -> r.Metrics.params) rows in
  let metric_keys = keys_of (fun r -> r.Metrics.metrics) rows in
  let headers = param_keys @ metric_keys in
  let cell find r k =
    match find r k with Some v -> Metrics.value_to_cell v | None -> "-"
  in
  let first_value k =
    List.find_map
      (fun r ->
        match Metrics.find_param r k with
        | Some v -> Some v
        | None -> Metrics.find_metric r k)
      rows
  in
  let aligns =
    List.map
      (fun k ->
        match first_value k with
        | Some (Metrics.Str _) | Some (Metrics.Bool _) -> T.Left
        | _ -> T.Right)
      headers
  in
  T.of_cells
    ~title:(if section = "" then title else section)
    ~headers ~aligns
    (List.map
       (fun r ->
         List.map (cell Metrics.find_param r) param_keys
         @ List.map (cell Metrics.find_metric r) metric_keys)
       rows)

let tables_of_outcome (o : Experiment.outcome) =
  List.map (table_of_section ~title:o.Experiment.title) (sections o.Experiment.rows)

let print_outcome ?(wall = false) (o : Experiment.outcome) =
  Printf.printf "\n########## %s: %s ##########\n\n" o.Experiment.id
    o.Experiment.title;
  List.iter T.print (tables_of_outcome o);
  List.iter print_endline o.Experiment.notes;
  if wall then Printf.printf "[%s: %.2f s]\n" o.Experiment.id o.Experiment.wall_s

(* --- JSON report --- *)

let schema_version = 1

(* The only report fields that legitimately differ between two runs of
   the same experiment: the wall clock and the [_s]-suffixed timer
   scalars of Metrics.snapshot. Everything left is deterministic at any
   --jobs; the differential determinism suite strips outcomes and
   compares the resulting reports byte-for-byte. *)
let strip_volatile (o : Experiment.outcome) =
  {
    o with
    Experiment.wall_s = 0.;
    scalars =
      List.filter
        (fun (k, _) -> not (String.ends_with ~suffix:"_s" k))
        o.Experiment.scalars;
  }

let fields_to_json fields =
  Json.Obj (List.map (fun (k, v) -> (k, Metrics.value_to_json v)) fields)

let row_to_json (r : Metrics.row) =
  Json.Obj
    [
      ("section", Json.Str r.Metrics.section);
      ("params", fields_to_json r.Metrics.params);
      ("metrics", fields_to_json r.Metrics.metrics);
    ]

let outcome_to_json (o : Experiment.outcome) =
  Json.Obj
    [
      ("id", Json.Str o.Experiment.id);
      ("title", Json.Str o.Experiment.title);
      ("wall_s", Json.Float o.Experiment.wall_s);
      ("scalars", Json.Obj (List.map (fun (k, v) -> (k, Json.Float v)) o.Experiment.scalars));
      ("rows", Json.List (List.map row_to_json o.Experiment.rows));
      ("notes", Json.List (List.map (fun s -> Json.Str s) o.Experiment.notes));
    ]

let report_to_json ?(generator = "fmmlab bench") ~created outcomes =
  Json.Obj
    [
      ("schema_version", Json.Int schema_version);
      ("generator", Json.Str generator);
      ("created_unix", Json.Float created);
      ("experiments", Json.List (List.map outcome_to_json outcomes));
    ]

(* --- loading a report back --- *)

let fields_of_json j =
  match j with
  | Json.Obj fields ->
    List.filter_map
      (fun (k, v) ->
        match Metrics.value_of_json v with Some v -> Some (k, v) | None -> None)
      fields
  | _ -> []

let row_of_json j =
  let section =
    Option.bind (Json.member "section" j) Json.to_str_opt |> Option.value ~default:""
  in
  {
    Metrics.section;
    params = (match Json.member "params" j with Some p -> fields_of_json p | None -> []);
    metrics = (match Json.member "metrics" j with Some m -> fields_of_json m | None -> []);
  }

let outcome_of_json j : Experiment.outcome option =
  match Option.bind (Json.member "id" j) Json.to_str_opt with
  | None -> None
  | Some id ->
    Some
      {
        Experiment.id;
        title =
          Option.bind (Json.member "title" j) Json.to_str_opt
          |> Option.value ~default:id;
        wall_s =
          Option.bind (Json.member "wall_s" j) Json.to_float_opt
          |> Option.value ~default:0.;
        scalars =
          (match Json.member "scalars" j with
          | Some (Json.Obj fields) ->
            List.filter_map
              (fun (k, v) ->
                match Json.to_float_opt v with Some x -> Some (k, x) | None -> None)
              fields
          | _ -> []);
        rows =
          (match Option.bind (Json.member "rows" j) Json.to_list_opt with
          | Some rows -> List.map row_of_json rows
          | None -> []);
        notes =
          (match Option.bind (Json.member "notes" j) Json.to_list_opt with
          | Some notes -> List.filter_map Json.to_str_opt notes
          | None -> []);
      }

let outcomes_of_json j =
  match Json.member "schema_version" j with
  | Some (Json.Int v) when v = schema_version -> (
    match Option.bind (Json.member "experiments" j) Json.to_list_opt with
    | Some exps -> Ok (List.filter_map outcome_of_json exps)
    | None -> Error "report has no \"experiments\" array")
  | Some (Json.Int v) ->
    Error (Printf.sprintf "unsupported schema_version %d (expected %d)" v schema_version)
  | _ -> Error "missing schema_version: not a bench report"

(* --- baseline diff --- *)

type diff = {
  lines : string list;  (** human-readable findings, emission order *)
  n_compared : int;  (** gated rows present in both runs *)
  n_regressions : int;
  n_improvements : int;
  n_unmatched : int;
      (** current gated rows the baseline lacks, plus current
          experiments the baseline lacks entirely *)
}

let row_key (o : Experiment.outcome) (r : Metrics.row) =
  let part (k, v) = k ^ "=" ^ Metrics.value_to_cell v in
  String.concat "|"
    (o.Experiment.id :: r.Metrics.section
    :: List.map part
         (List.sort (fun (a, _) (b, _) -> compare a b) r.Metrics.params))

(* The Int metrics other than "ratio": deterministic counts, gated for
   equality. *)
let exact_metrics (r : Metrics.row) =
  List.filter_map
    (fun (k, v) ->
      match v with Metrics.Int i when k <> "ratio" -> Some (k, i) | _ -> None)
    r.Metrics.metrics

let diff ~tolerance ?time_tolerance ~baseline ~current () =
  let tbl = Hashtbl.create 256 in
  List.iter
    (fun (o : Experiment.outcome) ->
      List.iter (fun r -> Hashtbl.replace tbl (row_key o r) r) o.Experiment.rows)
    baseline;
  let base_wall =
    List.map (fun (o : Experiment.outcome) -> (o.Experiment.id, o.Experiment.wall_s)) baseline
  in
  let lines = ref [] in
  let emit fmt = Printf.ksprintf (fun s -> lines := s :: !lines) fmt in
  let compared = ref 0 and regs = ref 0 and imps = ref 0 and unmatched = ref 0 in
  let check_ratio key cur base =
    match (cur, base) with
    | Some cur, Some base ->
      if cur > base *. (1. +. tolerance) then begin
        incr regs;
        emit "  REGRESSION %s: ratio %.3f -> %.3f (+%.1f%% > %.0f%% tolerance)" key base
          cur
          ((cur /. base -. 1.) *. 100.)
          (tolerance *. 100.)
      end
      else if cur < base *. (1. -. tolerance) then begin
        incr imps;
        emit "  improved %s: ratio %.3f -> %.3f (%.1f%%)" key base cur
          ((cur /. base -. 1.) *. 100.)
      end
    | Some cur, None ->
      incr regs;
      emit "  REGRESSION %s: ratio - -> %.3f (no baseline ratio)" key cur
    | None, _ -> ()
  in
  let check_exact key base (name, cur) =
    match Metrics.find_metric base name with
    | Some (Metrics.Int b) when b = cur -> ()
    | found ->
      incr regs;
      emit "  REGRESSION %s: %s %s -> %d (exact)" key name
        (match found with Some v -> Metrics.value_to_cell v | None -> "-")
        cur
  in
  let check_row (o : Experiment.outcome) r =
    let ratio = Metrics.ratio r and exact = exact_metrics r in
    if ratio <> None || exact <> [] then begin
      let key = row_key o r in
      match Hashtbl.find_opt tbl key with
      | None -> (
        incr unmatched;
        match ratio with
        | Some cur -> emit "  UNMATCHED %s: ratio %.3f (no baseline row)" key cur
        | None -> emit "  UNMATCHED %s (no baseline row)" key)
      | Some base ->
        incr compared;
        check_ratio key ratio (Metrics.ratio base);
        List.iter (check_exact key base) exact
    end
  in
  List.iter
    (fun (o : Experiment.outcome) ->
      (* an experiment the baseline lacks is ungated as a whole, whether
         or not its rows carry a ratio *)
      if List.mem_assoc o.Experiment.id base_wall then
        List.iter (check_row o) o.Experiment.rows
      else begin
        incr unmatched;
        emit "  UNMATCHED %s (no baseline experiment)" o.Experiment.id
      end;
      (* wall-clock: gated only when a time tolerance is given — wall
         clocks are load-sensitive, ratios are not *)
      match (time_tolerance, List.assoc_opt o.Experiment.id base_wall) with
      | Some tt, Some bw when bw > 0. ->
        let cw = o.Experiment.wall_s in
        if cw > bw *. (1. +. tt) then begin
          incr regs;
          emit "  REGRESSION %s: wall %.2fs -> %.2fs (+%.0f%% > %.0f%% tolerance)"
            o.Experiment.id bw cw
            ((cw /. bw -. 1.) *. 100.)
            (tt *. 100.)
        end
      | _ -> ())
    current;
  {
    lines = List.rev !lines;
    n_compared = !compared;
    n_regressions = !regs;
    n_improvements = !imps;
    n_unmatched = !unmatched;
  }

let passes d = d.n_regressions = 0 && d.n_unmatched = 0
