(* Minimal growable array (OCaml 5.1 predates stdlib Dynarray). The
   CDAG builder appends one metadata record per vertex in id order;
   [get]/[set] then serve random access during analysis. *)

type 'a t = { mutable data : 'a array; mutable len : int; dummy : 'a }

let create ~dummy = { data = Array.make 8 dummy; len = 0; dummy }

let length t = t.len
let clear t = t.len <- 0

let push t x =
  if t.len = Array.length t.data then begin
    let bigger = Array.make (2 * t.len) t.dummy in
    Array.blit t.data 0 bigger 0 t.len;
    t.data <- bigger
  end;
  t.data.(t.len) <- x;
  t.len <- t.len + 1

let get t i =
  if i < 0 || i >= t.len then invalid_arg "Vec.get: index out of bounds";
  t.data.(i)

let set t i x =
  if i < 0 || i >= t.len then invalid_arg "Vec.set: index out of bounds";
  t.data.(i) <- x

let to_array t = Array.sub t.data 0 t.len

let iteri f t =
  for i = 0 to t.len - 1 do
    f i t.data.(i)
  done
