(* Eight ids per byte: V/8 bytes, so the residency sets of a 40M-vertex
   implicit CDAG cost 5 MB each. *)
type t = { bytes : Bytes.t; n : int }

let create n =
  if n < 0 then invalid_arg "Bitset.create: negative capacity";
  { bytes = Bytes.make ((n + 7) / 8) '\000'; n }

let capacity t = t.n

let mem t v = Char.code (Bytes.get t.bytes (v lsr 3)) land (1 lsl (v land 7)) <> 0

let add t v =
  let i = v lsr 3 in
  Bytes.unsafe_set t.bytes i
    (Char.unsafe_chr (Char.code (Bytes.get t.bytes i) lor (1 lsl (v land 7))))

let remove t v =
  let i = v lsr 3 in
  Bytes.unsafe_set t.bytes i
    (Char.unsafe_chr (Char.code (Bytes.get t.bytes i) land lnot (1 lsl (v land 7))))

let copy t = { t with bytes = Bytes.copy t.bytes }

let blit ~src ~dst =
  if src.n <> dst.n then invalid_arg "Bitset.blit: capacity mismatch";
  Bytes.blit src.bytes 0 dst.bytes 0 (Bytes.length src.bytes)

let popcount w =
  let rec go acc w = if w = 0 then acc else go (acc + 1) (w land (w - 1)) in
  go 0 w

let cardinal t =
  let k = ref 0 in
  Bytes.iter (fun c -> k := !k + popcount (Char.code c)) t.bytes;
  !k

let equal a b = a.n = b.n && Bytes.equal a.bytes b.bytes

let iter f t =
  for v = 0 to t.n - 1 do
    if mem t v then f v
  done

let to_list t =
  let acc = ref [] in
  for v = t.n - 1 downto 0 do
    if mem t v then acc := v :: !acc
  done;
  !acc
