type t = {
  id : int;
  name : string;
  job : int;
  parent : int;
  start_ns : int64;
  stop_ns : int64;
  words : float;
}

let on = ref false
let job = ref 0
let next_id = ref 0
let open_spans = ref []
let spans = ref []

let set_recording b = on := b
let set_job j = job := j

let call name f =
  if not !on then f ()
  else begin
    let id = !next_id in
    incr next_id;
    let parent = match !open_spans with p :: _ -> p | [] -> -1 in
    open_spans := id :: !open_spans;
    let job = !job in
    let w0 = Probe.words () in
    let start_ns = Probe.now_ns () in
    let close () =
      let stop_ns = Probe.now_ns () in
      let words = Probe.words () -. w0 in
      open_spans := List.tl !open_spans;
      spans := { id; name; job; parent; start_ns; stop_ns; words } :: !spans
    in
    match f () with
    | v ->
      close ();
      v
    | exception e ->
      close ();
      raise e
  end

let recorded () =
  List.sort (fun a b -> compare (a.start_ns, a.id) (b.start_ns, b.id)) !spans

let clear () =
  spans := [];
  open_spans := []

let duration s = Probe.seconds_between s.start_ns s.stop_ns

let self_times spans =
  let covered = Hashtbl.create 64 in
  List.iter
    (fun s ->
      if s.parent >= 0 then
        Hashtbl.replace covered s.parent
          (duration s +. Option.value ~default:0. (Hashtbl.find_opt covered s.parent)))
    spans;
  List.map
    (fun s -> (s, duration s -. Option.value ~default:0. (Hashtbl.find_opt covered s.id)))
    spans

let rec mkdir_p dir =
  if dir <> "" && dir <> "." && dir <> "/" && not (Sys.file_exists dir) then begin
    mkdir_p (Filename.dirname dir);
    Sys.mkdir dir 0o755
  end

let write_jsonl path spans =
  mkdir_p (Filename.dirname path);
  let oc = open_out path in
  List.iter
    (fun (s, self) ->
      Printf.fprintf oc
        "{\"id\":%d,\"name\":%S,\"job\":%d,\"parent\":%d,\"start_ns\":%Ld,\"stop_ns\":%Ld,\"self_s\":%.9f,\"words\":%.0f}\n"
        s.id s.name s.job s.parent s.start_ns s.stop_ns self s.words)
    (self_times spans);
  close_out oc
