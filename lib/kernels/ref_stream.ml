(* Fixed-size chunks of one unboxed array each, so recording never
   copies and leaves no growth garbage behind; a store is kept as
   [lnot idx] (negative for every index >= 0) until [to_arrays] decodes
   it into arrays of the exact length. *)
let chunk = 65536

type t = {
  mutable full : int array list;  (* most recent first *)
  mutable head : int array;
  mutable len : int;  (* entries in [head] *)
}

let create () = { full = []; head = Array.make chunk 0; len = 0 }

let add t x =
  if t.len = chunk then begin
    t.full <- t.head :: t.full;
    t.head <- Array.make chunk 0;
    t.len <- 0
  end;
  t.head.(t.len) <- x;
  t.len <- t.len + 1

let read t idx = add t idx
let write t idx = add t (lnot idx)

let to_arrays t =
  let n = (List.length t.full * chunk) + t.len in
  let refs = Array.make n 0 and writes = Array.make n false in
  let decode pos a len =
    for i = 0 to len - 1 do
      let x = a.(i) in
      if x < 0 then begin
        refs.(pos + i) <- lnot x;
        writes.(pos + i) <- true
      end
      else refs.(pos + i) <- x
    done
  in
  List.iteri (fun k a -> decode (k * chunk) a chunk) (List.rev t.full);
  decode (n - t.len) t.head t.len;
  (refs, writes)
