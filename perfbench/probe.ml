let now_ns () = Monotonic_clock.now ()
let seconds_between t0 t1 = Int64.to_float (Int64.sub t1 t0) *. 1e-9

let words () =
  (* The runtime folds its major-heap counters into Gc.quick_stat only
     at minor collections, so empty the minor heap first: minor +
     (major - promoted) is then exact at this instant. *)
  Gc.minor ();
  let s = Gc.quick_stat () in
  s.Gc.minor_words +. s.Gc.major_words -. s.Gc.promoted_words

let parse_vmhwm_kb line =
  match String.split_on_char ':' line with
  | [ "VmHWM"; rest ] -> (
    match String.split_on_char ' ' (String.trim rest) with
    | kb :: _ -> int_of_string_opt kb
    | [] -> None)
  | _ -> None

let vmhwm_kb () =
  match open_in "/proc/self/status" with
  | exception Sys_error _ -> None
  | ic ->
    let rec scan () =
      match input_line ic with
      | exception End_of_file -> None
      | line -> (
        match parse_vmhwm_kb line with Some kb -> Some kb | None -> scan ())
    in
    let r = scan () in
    close_in ic;
    r

let peak_rss_mb () =
  match vmhwm_kb () with
  | Some kb -> float_of_int kb /. 1024.
  | None ->
    let bytes = (Gc.quick_stat ()).Gc.top_heap_words * (Sys.word_size / 8) in
    float_of_int bytes /. 1048576.
