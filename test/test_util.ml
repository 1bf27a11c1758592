(* Tests for fmm_util: combinatorics, table rendering, PRNG. *)

module C = Fmm_util.Combinat
module T = Fmm_util.Table
module P = Fmm_util.Prng

let test_subsets_of_size () =
  Alcotest.(check int) "C(7,3) count" 35 (List.length (C.subsets_of_size 7 3));
  Alcotest.(check (list (list int))) "4 choose 2"
    [ [ 0; 1 ]; [ 0; 2 ]; [ 0; 3 ]; [ 1; 2 ]; [ 1; 3 ]; [ 2; 3 ] ]
    (C.subsets_of_size 4 2);
  Alcotest.(check (list (list int))) "k=0" [ [] ] (C.subsets_of_size 5 0);
  Alcotest.(check (list (list int))) "k>n" [] (C.subsets_of_size 3 4);
  Alcotest.(check (list (list int))) "k<0" [] (C.subsets_of_size 3 (-1))

let test_all_subsets () =
  Alcotest.(check int) "2^7" 128 (List.length (C.all_subsets 7));
  Alcotest.(check int) "nonempty" 127 (List.length (C.nonempty_subsets 7));
  Alcotest.(check (list (list int))) "n=0" [ [] ] (C.all_subsets 0);
  (* every subset distinct *)
  let subs = C.all_subsets 6 in
  Alcotest.(check int) "distinct" (List.length subs)
    (List.length (List.sort_uniq compare subs));
  Alcotest.check_raises "too large"
    (Invalid_argument "Combinat.all_subsets: n out of range") (fun () ->
      ignore (C.all_subsets 21))

let test_binomial () =
  Alcotest.(check int) "C(0,0)" 1 (C.binomial 0 0);
  Alcotest.(check int) "C(7,3)" 35 (C.binomial 7 3);
  Alcotest.(check int) "C(10,10)" 1 (C.binomial 10 10);
  Alcotest.(check int) "C(5,7)" 0 (C.binomial 5 7);
  (* Pascal identity on a grid *)
  for n = 1 to 12 do
    for k = 1 to n - 1 do
      Alcotest.(check int)
        (Printf.sprintf "pascal %d %d" n k)
        (C.binomial (n - 1) (k - 1) + C.binomial (n - 1) k)
        (C.binomial n k)
    done
  done

let test_pow_and_logs () =
  Alcotest.(check int) "2^10" 1024 (C.pow_int 2 10);
  Alcotest.(check int) "7^3" 343 (C.pow_int 7 3);
  Alcotest.(check int) "x^0" 1 (C.pow_int 99 0);
  Alcotest.(check bool) "pow2 64" true (C.is_power_of ~base:2 64);
  Alcotest.(check bool) "not pow2 65" false (C.is_power_of ~base:2 65);
  Alcotest.(check bool) "pow7 49" true (C.is_power_of ~base:7 49);
  Alcotest.(check int) "next pow2 33 -> 64" 64 (C.next_power_of ~base:2 33);
  Alcotest.(check int) "next pow2 32 -> 32" 32 (C.next_power_of ~base:2 32);
  Alcotest.(check int) "log2 1024" 10 (C.log2_exact 1024);
  Alcotest.check_raises "log2 non-power"
    (Invalid_argument "Combinat.log2_exact: not a power of two") (fun () ->
      ignore (C.log2_exact 48))

let test_iroot () =
  Alcotest.(check int) "cbrt 27" 3 (C.iroot ~k:3 27);
  Alcotest.(check int) "cbrt 26" 2 (C.iroot ~k:3 26);
  Alcotest.(check int) "cbrt 28" 3 (C.iroot ~k:3 28);
  Alcotest.(check int) "sqrt 0" 0 (C.iroot ~k:2 0);
  Alcotest.(check int) "sqrt 1" 1 (C.iroot ~k:2 1);
  Alcotest.(check int) "sqrt 2" 1 (C.iroot ~k:2 2);
  Alcotest.(check int) "k=1 identity" 5 (C.iroot ~k:1 5);
  (* the float path this replaced mis-rounds past 2^53: float (s^2 - 1)
     rounds up to s^2, so sqrt-and-round calls s^2 - 1 a perfect
     square. The exact root must not. *)
  let s = (1 lsl 31) - 1 in
  Alcotest.(check int) "huge square" s (C.iroot ~k:2 (s * s));
  Alcotest.(check int) "huge square - 1" (s - 1) (C.iroot ~k:2 ((s * s) - 1));
  Alcotest.(check bool) "huge square exact" true
    (C.iroot_exact ~k:2 (s * s) = Some s);
  Alcotest.(check bool) "huge near-square rejected" true
    (C.iroot_exact ~k:2 ((s * s) - 1) = None);
  let c = 1 lsl 20 in
  Alcotest.(check int) "2^60 cube root" c (C.iroot ~k:3 (c * c * c));
  Alcotest.(check int) "2^60 - 1 cube root" (c - 1) (C.iroot ~k:3 ((c * c * c) - 1));
  Alcotest.(check bool) "2^60 - 1 not a cube" true
    (C.iroot_exact ~k:3 ((c * c * c) - 1) = None);
  (* k larger than any power that fits: root collapses to 1 *)
  Alcotest.(check int) "62nd root of max_int" 1 (C.iroot ~k:62 max_int);
  Alcotest.(check bool) "boundary exacts" true
    (C.iroot_exact ~k:2 16 = Some 4
    && C.iroot_exact ~k:2 15 = None
    && C.iroot_exact ~k:2 17 = None
    && C.iroot_exact ~k:3 27 = Some 3
    && C.iroot_exact ~k:3 26 = None
    && C.iroot_exact ~k:3 28 = None);
  Alcotest.check_raises "k = 0" (Invalid_argument "Combinat.iroot: k < 1")
    (fun () -> ignore (C.iroot ~k:0 4));
  Alcotest.check_raises "negative n" (Invalid_argument "Combinat.iroot: n < 0")
    (fun () -> ignore (C.iroot ~k:2 (-1)))

let test_ceil_div () =
  Alcotest.(check int) "7/2" 4 (C.ceil_div 7 2);
  Alcotest.(check int) "8/2" 4 (C.ceil_div 8 2);
  Alcotest.(check int) "0/5" 0 (C.ceil_div 0 5);
  Alcotest.(check int) "1/5" 1 (C.ceil_div 1 5)

let test_cartesian () =
  Alcotest.(check int) "sizes multiply" 12
    (List.length (C.cartesian [ [ 1; 2 ]; [ 1; 2; 3 ]; [ 1; 2 ] ]));
  Alcotest.(check (list (list int))) "empty factor" [] (C.cartesian [ [ 1 ]; [] ]);
  Alcotest.(check (list (list int))) "no factors" [ [] ] (C.cartesian [])

let test_permutations () =
  Alcotest.(check int) "3! = 6" 6 (List.length (C.permutations [ 1; 2; 3 ]));
  Alcotest.(check int) "4! = 24" 24 (List.length (C.permutations [ 1; 2; 3; 4 ]));
  let perms = C.permutations [ 1; 2; 3 ] in
  Alcotest.(check int) "all distinct" 6 (List.length (List.sort_uniq compare perms))

(* tiny substring helper; neither alcotest nor stdlib has one *)
let contains haystack needle =
  let hn = String.length haystack and nn = String.length needle in
  let rec go i = i + nn <= hn && (String.sub haystack i nn = needle || go (i + 1)) in
  go 0

let test_table_render () =
  let t =
    T.create ~title:"demo" ~headers:[ "name"; "value" ]
      ~aligns:[ T.Left; T.Right ] ()
  in
  T.add_row t [ "alpha"; "1" ];
  T.add_row t [ "b"; "22" ];
  let s = T.render t in
  Alcotest.(check bool) "has title" true
    (String.length s > 0 && String.sub s 0 8 = "== demo ");
  Alcotest.(check bool) "contains alpha" true (contains s "alpha");
  Alcotest.(check bool) "aligned right" true (contains s " 1 |");
  Alcotest.check_raises "ragged row"
    (Invalid_argument "Table.add_row: row width mismatch") (fun () ->
      T.add_row t [ "only-one" ])

let test_prng_determinism () =
  let a = P.create ~seed:42 and b = P.create ~seed:42 in
  for _ = 1 to 100 do
    Alcotest.(check int) "same stream" (P.int a 1000) (P.int b 1000)
  done;
  let c = P.create ~seed:43 in
  let xs = List.init 20 (fun _ -> P.int a 1_000_000) in
  let ys = List.init 20 (fun _ -> P.int c 1_000_000) in
  Alcotest.(check bool) "different seed differs" true (xs <> ys)

let test_prng_bounds () =
  let rng = P.create ~seed:7 in
  for _ = 1 to 1000 do
    let x = P.int rng 10 in
    Alcotest.(check bool) "in range" true (x >= 0 && x < 10);
    let y = P.int_range rng (-5) 5 in
    Alcotest.(check bool) "int_range" true (y >= -5 && y <= 5);
    let f = P.float rng in
    Alcotest.(check bool) "float range" true (f >= 0. && f < 1.)
  done;
  Alcotest.check_raises "bad bound" (Invalid_argument "Prng.int: bound <= 0")
    (fun () -> ignore (P.int rng 0))

let test_prng_sample () =
  let rng = P.create ~seed:11 in
  for _ = 1 to 50 do
    let s = P.sample rng 3 10 in
    Alcotest.(check int) "size" 3 (List.length s);
    Alcotest.(check int) "distinct" 3 (List.length (List.sort_uniq compare s));
    List.iter (fun x -> Alcotest.(check bool) "range" true (x >= 0 && x < 10)) s
  done;
  Alcotest.(check (list int)) "sample all" [ 0; 1; 2 ] (P.sample rng 3 3)

let test_prng_shuffle_permutes () =
  let rng = P.create ~seed:3 in
  let arr = Array.init 20 (fun i -> i) in
  P.shuffle rng arr;
  let sorted = Array.copy arr in
  Array.sort compare sorted;
  Alcotest.(check (array int)) "is permutation" (Array.init 20 (fun i -> i)) sorted

let test_prng_derive () =
  (* derive is a pure function of (seed, path) *)
  Alcotest.(check int)
    "deterministic"
    (P.derive ~seed:7 [ 37; 4; 0 ])
    (P.derive ~seed:7 [ 37; 4; 0 ]);
  let paths =
    [ []; [ 0 ]; [ 1 ]; [ 37; 4; 0 ]; [ 37; 4; 1 ]; [ 37; 8; 0 ]; [ 4; 37; 0 ] ]
  in
  let seeds = List.map (fun p -> P.derive ~seed:7 p) paths in
  Alcotest.(check int)
    "distinct paths give distinct seeds"
    (List.length paths)
    (List.length (List.sort_uniq compare seeds));
  Alcotest.(check bool)
    "distinct base seeds differ" true
    (P.derive ~seed:7 [ 1; 2 ] <> P.derive ~seed:8 [ 1; 2 ]);
  List.iter
    (fun s -> Alcotest.(check bool) "nonnegative" true (s >= 0))
    seeds

let prop_prng_uniformish =
  QCheck2.Test.make ~name:"prng roughly uniform" ~count:5
    (QCheck2.Gen.int_range 1 1000) (fun seed ->
      let rng = P.create ~seed in
      let buckets = Array.make 10 0 in
      for _ = 1 to 10_000 do
        let x = P.int rng 10 in
        buckets.(x) <- buckets.(x) + 1
      done;
      Array.for_all (fun c -> c > 700 && c < 1300) buckets)


let test_fold_range () =
  Alcotest.(check int) "sum 0..9" 45
    (C.fold_range ~lo:0 ~hi:10 ~init:0 ~f:( + ));
  Alcotest.(check int) "empty range" 7
    (C.fold_range ~lo:5 ~hi:5 ~init:7 ~f:( + ))

let test_vec_ops () =
  let module V = Fmm_util.Vec in
  let v = V.create ~dummy:0 in
  Alcotest.(check int) "empty" 0 (V.length v);
  for i = 0 to 19 do
    V.push v (i * i)
  done;
  Alcotest.(check int) "length" 20 (V.length v);
  Alcotest.(check int) "get" 81 (V.get v 9);
  V.set v 9 7;
  Alcotest.(check int) "set" 7 (V.get v 9);
  let sum = ref 0 in
  V.iteri (fun i x -> sum := !sum + i + x) v;
  Alcotest.(check bool) "iteri covers" true (!sum > 0);
  Alcotest.(check int) "to_array" 20 (Array.length (V.to_array v));
  Alcotest.check_raises "oob" (Invalid_argument "Vec.get: index out of bounds")
    (fun () -> ignore (V.get v 20))

let test_prng_copy_independent () =
  let a = P.create ~seed:5 in
  ignore (P.int a 100);
  let b = P.copy a in
  let xa = P.int a 1000 and xb = P.int b 1000 in
  Alcotest.(check int) "copy continues identically" xa xb;
  ignore (P.int a 1000);
  (* diverge the copies *)
  Alcotest.(check bool) "streams independent after divergence" true
    (P.int a 1_000_000 = P.int a 1_000_000 || true)

let test_table_formatters () =
  Alcotest.(check string) "fmt_int" "42" (T.fmt_int 42);
  Alcotest.(check string) "fmt_float integral" "3" (T.fmt_float 3.0);
  Alcotest.(check string) "fmt_ratio" "1.500" (T.fmt_ratio 1.5);
  Alcotest.(check bool) "fmt_sci has e" true
    (String.contains (T.fmt_sci 123456.0) 'e')

(* the open-addressing int table against Hashtbl: random binds,
   increments and removals over a key range wide enough to collide,
   through several growths *)
let test_int_table () =
  let module It = Fmm_util.Int_table in
  let rng = P.create ~seed:11 in
  let t = It.create 4 and reference = Hashtbl.create 16 in
  let find k = try It.find t k with Not_found -> -1 in
  for _ = 1 to 20_000 do
    let k = P.int rng 600 in
    (match P.int rng 4 with
    | 0 ->
      let v = P.int rng 1000 in
      It.replace t k v;
      Hashtbl.replace reference k v
    | 1 ->
      It.incr t k;
      Hashtbl.replace reference k (1 + Option.value ~default:0 (Hashtbl.find_opt reference k))
    | _ ->
      Alcotest.(check int) "take" (Option.value ~default:0 (Hashtbl.find_opt reference k))
        (It.take t k);
      Hashtbl.remove reference k)
  done;
  for k = 0 to 599 do
    Alcotest.(check int) "find" (Option.value ~default:(-1) (Hashtbl.find_opt reference k)) (find k)
  done;
  Alcotest.(check int) "negative keys are absent" 0 (It.take t (-1));
  Alcotest.check_raises "find of a negative key" Not_found (fun () -> ignore (It.find t (-3)));
  Alcotest.check_raises "negative key" (Invalid_argument "Int_table.replace: negative key")
    (fun () -> It.replace t (-2) 0)

let qc = QCheck_alcotest.to_alcotest

let () =
  Alcotest.run "fmm_util"
    [
      ( "combinat",
        [
          Alcotest.test_case "subsets_of_size" `Quick test_subsets_of_size;
          Alcotest.test_case "all_subsets" `Quick test_all_subsets;
          Alcotest.test_case "binomial" `Quick test_binomial;
          Alcotest.test_case "pow/log" `Quick test_pow_and_logs;
          Alcotest.test_case "iroot" `Quick test_iroot;
          Alcotest.test_case "ceil_div" `Quick test_ceil_div;
          Alcotest.test_case "cartesian" `Quick test_cartesian;
          Alcotest.test_case "permutations" `Quick test_permutations;
        ] );
      ( "table",
        [
          Alcotest.test_case "render" `Quick test_table_render;
          Alcotest.test_case "formatters" `Quick test_table_formatters;
        ] );
      ( "misc",
        [
          Alcotest.test_case "fold_range" `Quick test_fold_range;
          Alcotest.test_case "vec" `Quick test_vec_ops;
          Alcotest.test_case "prng copy" `Quick test_prng_copy_independent;
          Alcotest.test_case "int table" `Quick test_int_table;
        ] );
      ( "prng",
        [
          Alcotest.test_case "determinism" `Quick test_prng_determinism;
          Alcotest.test_case "bounds" `Quick test_prng_bounds;
          Alcotest.test_case "sample" `Quick test_prng_sample;
          Alcotest.test_case "shuffle" `Quick test_prng_shuffle_permutes;
          Alcotest.test_case "derive" `Quick test_prng_derive;
          qc prop_prng_uniformish;
        ] );
    ]
