(* Recomputation study: the paper's central question, explored three
   ways.

   1. Exact red-blue pebbling, with vs without recomputation, on:
      - a Savage-style DAG engineered so recomputation strictly helps
        (Section V: "recomputation can be useful for some CDAGs");
      - encoder graphs and sub-CDAGs of Strassen-family algorithms,
        where the optima coincide.
   2. Random-DAG search for more separations.
   3. At scale: the rematerializing scheduler on H^{nxn} — recomputation
      buys arithmetic, not I/O below the Theorem 1.1 bound.

   Run with:  dune exec examples/recomputation_study.exe *)

module Pb = Fmm_pebble.Pebble
module Pd = Fmm_pebble.Pebble_dags
module S = Fmm_bilinear.Strassen
module Cd = Fmm_cdag.Cdag
module Ord = Fmm_machine.Orders
module Sch = Fmm_machine.Schedulers
module W = Fmm_machine.Workload
module Tr = Fmm_machine.Trace
module B = Fmm_bounds.Bounds

let show name game =
  match Pb.compare_recomputation game with
  | Some w, Some wo ->
    Printf.printf "   %-34s with = %2d, without = %2d  %s\n" name w wo
      (if w < wo then "<- recomputation helps!" else "(no gain)")
  | _ -> Printf.printf "   %-34s search exhausted\n" name

let () =
  print_endline "=== 1. exact optimal pebbling, with vs without recomputation ===";
  show "Savage-style separation DAG" (Pd.recomputation_wins ());
  show "Strassen encoder (A side, R=3)"
    (Pd.encoder_game S.strassen Fmm_cdag.Encoder.A_side ~red_limit:3);
  show "Strassen encoder (A side, R=5)"
    (Pd.encoder_game S.strassen Fmm_cdag.Encoder.A_side ~red_limit:5);
  show "Winograd encoder (A side, R=5)"
    (Pd.encoder_game S.winograd Fmm_cdag.Encoder.A_side ~red_limit:5);
  let cdag2 = Cd.build S.strassen ~n:2 in
  show "Strassen H^{2x2} C21 fragment (R=4)"
    (Pd.of_cdag_outputs cdag2 ~outputs:[ (Cd.outputs cdag2).(2) ] ~red_limit:4);
  show "Strassen H^{2x2} C12 fragment (R=4)"
    (Pd.of_cdag_outputs cdag2 ~outputs:[ (Cd.outputs cdag2).(1) ] ~red_limit:4);
  print_newline ();

  print_endline "=== 2. random-DAG separation search (layered, width 3) ===";
  let separations = ref 0 and solved = ref 0 in
  for seed = 1 to 40 do
    let g, inputs, outputs = Pd.random_dag ~seed ~layers:3 ~width:3 ~density:0.4 in
    let game = Pb.make ~graph:g ~inputs ~outputs ~red_limit:3 in
    match Pb.compare_recomputation ~max_states:300_000 game with
    | Some w, Some wo ->
      incr solved;
      if w < wo then begin
        incr separations;
        Printf.printf "   seed %2d: with = %d < without = %d\n" seed w wo
      end
    | _ -> ()
  done;
  Printf.printf "   %d/%d random instances solved; %d separations found\n\n"
    !solved 40 !separations;

  print_endline "=== 3. at scale: rematerializing vs spilling on H^{16x16} ===";
  let cdag = Cd.build S.strassen ~n:16 in
  let order = Ord.recursive_dfs cdag in
  Printf.printf "   %-6s %-10s %-10s %-12s %-12s %s\n" "M" "spill I/O"
    "remat I/O" "spill flops" "remat flops" "bound";
  List.iter
    (fun m ->
      let lru = Sch.run_lru (W.of_cdag cdag) ~cache_size:m order in
      let rem =
        try Some (Sch.run_rematerialize (W.of_cdag cdag) ~cache_size:m order)
        with Failure _ | Sch.Cache_too_small _ -> None
      in
      let bound = B.fast_sequential ~n:16 ~m () in
      match rem with
      | Some rem ->
        Printf.printf "   %-6d %-10d %-10d %-12d %-12d %.0f\n" m
          (Tr.io lru.Sch.counters) (Tr.io rem.Sch.counters)
          lru.Sch.counters.Tr.computes rem.Sch.counters.Tr.computes bound
      | None ->
        Printf.printf "   %-6d %-10d (remat needs bigger cache)  bound %.0f\n" m
          (Tr.io lru.Sch.counters) bound)
    [ 48; 64; 128; 256 ];
  print_endline
    "\n   Recomputation inflates the flop count and never pushes I/O below the";
  print_endline
    "   Theorem 1.1 bound: for fast matrix multiplication, recomputation cannot";
  print_endline "   reduce communication asymptotically."
