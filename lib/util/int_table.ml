(* Linear probing over nonnegative keys. Cell i holds its key at
   [cells.(2i)] (-1 when free) and its value beside it, so a probe
   reads one cache line; the home cell is the top bits of a Fibonacci
   hash. It allocates only when it grows, where a Hashtbl allocates a
   bucket per new key and an option per lookup. *)

type t = {
  mutable cells : int array;
  mutable mask : int; (* capacity - 1 *)
  mutable shift : int; (* 63 - log2 capacity *)
  mutable size : int;
}

let empty bits =
  { cells = Array.make (2 lsl bits) (-1); mask = (1 lsl bits) - 1; shift = 63 - bits; size = 0 }

let create n =
  let bits = ref 6 in
  while 1 lsl !bits < 2 * n do
    incr bits
  done;
  empty !bits

let home t key = (key * 0x1E3779B97F4A7C15) lsr t.shift

(* the cell holding [key], or the free cell that ends its probe run *)
let rec probe t key i =
  let k = t.cells.(2 * i) in
  if k = key || k < 0 then i else probe t key ((i + 1) land t.mask)

let grow t =
  let old = t.cells in
  let bigger = empty (64 - t.shift) in
  t.cells <- bigger.cells;
  t.mask <- bigger.mask;
  t.shift <- bigger.shift;
  for i = 0 to (Array.length old / 2) - 1 do
    let k = old.(2 * i) in
    if k >= 0 then begin
      let j = probe t k (home t k) in
      t.cells.(2 * j) <- k;
      t.cells.((2 * j) + 1) <- old.((2 * i) + 1)
    end
  done

let find t key =
  if key < 0 then raise Not_found;
  let i = probe t key (home t key) in
  if t.cells.(2 * i) = key then t.cells.((2 * i) + 1) else raise Not_found

(* bind [key] in the free cell [i] that ends its probe run *)
let insert t i key value =
  t.cells.(2 * i) <- key;
  t.cells.((2 * i) + 1) <- value;
  t.size <- t.size + 1;
  if 2 * t.size > t.mask + 1 then grow t

let replace t key value =
  if key < 0 then invalid_arg "Int_table.replace: negative key";
  let i = probe t key (home t key) in
  if t.cells.(2 * i) = key then t.cells.((2 * i) + 1) <- value else insert t i key value

let incr t key =
  if key < 0 then invalid_arg "Int_table.incr: negative key";
  let i = probe t key (home t key) in
  if t.cells.(2 * i) = key then t.cells.((2 * i) + 1) <- t.cells.((2 * i) + 1) + 1
  else insert t i key 1

let take t key =
  if key < 0 then 0
  else begin
    let cells = t.cells and m = t.mask in
    let i = probe t key (home t key) in
    if cells.(2 * i) <> key then 0
    else begin
      let value = cells.((2 * i) + 1) in
      t.size <- t.size - 1;
      (* pull each later member of the run back into the hole when the
         hole lies between its home cell and its current cell *)
      let hole = ref i and j = ref ((i + 1) land m) in
      while cells.(2 * !j) >= 0 do
        let k = cells.(2 * !j) in
        if (!j - home t k) land m >= (!j - !hole) land m then begin
          cells.(2 * !hole) <- k;
          cells.((2 * !hole) + 1) <- cells.((2 * !j) + 1);
          hole := !j
        end;
        j := (!j + 1) land m
      done;
      cells.(2 * !hole) <- -1;
      value
    end
  end
