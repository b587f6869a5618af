module Fenwick = Dvf_util.Fenwick

type distance_kind = [ `Stack | `Raw ]

type t = {
  elem_size : int;
  refs : int array;
  writes : bool array option;
  cache_ratio : float;
  distance : distance_kind;
}

let make ?(cache_ratio = 1.0) ?(distance = `Stack) ?writes ~elem_size refs =
  if elem_size <= 0 then invalid_arg "Template.make: elem_size <= 0";
  if not (cache_ratio > 0.0 && cache_ratio <= 1.0) then
    invalid_arg "Template.make: cache_ratio outside (0,1]";
  Array.iter
    (fun i -> if i < 0 then invalid_arg "Template.make: negative element index")
    refs;
  (match writes with
  | Some w when Array.length w <> Array.length refs ->
      invalid_arg "Template.make: writes length mismatch"
  | _ -> ());
  { elem_size; refs; writes; cache_ratio; distance }

let block_trace ~line t =
  if line <= 0 then invalid_arg "Template.block_trace: line <= 0";
  let first elem = elem * t.elem_size / line in
  let last elem = ((elem * t.elem_size) + t.elem_size - 1) / line in
  let count =
    Array.fold_left (fun acc elem -> acc + last elem - first elem + 1) 0 t.refs
  in
  let blocks = Array.make count 0 and flags = Array.make count false in
  let i = ref 0 in
  Array.iteri
    (fun pos elem ->
      let w = match t.writes with Some ws -> ws.(pos) | None -> false in
      for b = first elem to last elem do
        blocks.(!i) <- b;
        flags.(!i) <- w;
        incr i
      done)
    t.refs;
  (blocks, flags)

let available_blocks ~cache t =
  let cc = float_of_int (Cachesim.Config.capacity cache) in
  let line = float_of_int cache.Cachesim.Config.line in
  max 1 (int_of_float (cc *. t.cache_ratio /. line))

(* The two-step algorithm with LRU stack distances (number of distinct
   blocks touched since the previous reference to the same block,
   computed exactly with a Fenwick tree over timestamps) plus writeback
   accounting: a block's generation is dirty once any store touches it;
   when a dirty generation is evicted — detected at the re-reference miss
   or at the final flush — one writeback is charged. *)
let run_stack ~capacity trace wflags =
  let n = Array.length trace in
  let misses = ref 0 and writebacks = ref 0 in
  if n > 0 then begin
    let fen = Fenwick.create n in
    let last = Hashtbl.create 1024 in
    let dirty = Hashtbl.create 1024 in
    Array.iteri
      (fun time block ->
        let w = match wflags with Some ws -> ws.(time) | None -> false in
        let missed =
          match Hashtbl.find_opt last block with
          | None -> true
          | Some prev ->
              let between = Fenwick.range_sum fen ~lo:(prev + 1) ~hi:(time - 1) in
              let m = between >= capacity in
              Fenwick.add fen prev (-1);
              m
        in
        if missed then begin
          incr misses;
          if Hashtbl.find_opt dirty block = Some true then incr writebacks;
          Hashtbl.replace dirty block w
        end
        else if w then Hashtbl.replace dirty block true;
        Fenwick.add fen time 1;
        Hashtbl.replace last block time)
      trace;
    Hashtbl.iter (fun _ d -> if d then incr writebacks) dirty
  end;
  (!misses, !writebacks)

(* Literal reading of the paper: distance = raw number of intervening
   references.  Retained for the ablation study. *)
let run_raw ~capacity trace wflags =
  let last = Hashtbl.create 1024 in
  let dirty = Hashtbl.create 1024 in
  let misses = ref 0 and writebacks = ref 0 in
  Array.iteri
    (fun time block ->
      let w = match wflags with Some ws -> ws.(time) | None -> false in
      let missed =
        match Hashtbl.find_opt last block with
        | None -> true
        | Some prev -> time - prev - 1 >= capacity
      in
      if missed then begin
        incr misses;
        if Hashtbl.find_opt dirty block = Some true then incr writebacks;
        Hashtbl.replace dirty block w
      end
      else if w then Hashtbl.replace dirty block true;
      Hashtbl.replace last block time)
    trace;
  Hashtbl.iter (fun _ d -> if d then incr writebacks) dirty;
  (!misses, !writebacks)

let accesses_on_blocks ~capacity ~distance ~writes trace =
  if capacity <= 0 then invalid_arg "Template.accesses_on_blocks: capacity <= 0";
  (match writes with
  | Some w when Array.length w <> Array.length trace ->
      invalid_arg "Template.accesses_on_blocks: writes length mismatch"
  | _ -> ());
  match distance with
  | `Stack -> run_stack ~capacity trace writes
  | `Raw -> run_raw ~capacity trace writes

let misses_on_blocks ~capacity ~distance trace =
  fst (accesses_on_blocks ~capacity ~distance ~writes:None trace)

let main_memory_accesses ~cache t =
  let trace, wflags = block_trace ~line:cache.Cachesim.Config.line t in
  let capacity = available_blocks ~cache t in
  let writes = if t.writes = None then None else Some wflags in
  let misses, writebacks =
    accesses_on_blocks ~capacity ~distance:t.distance ~writes trace
  in
  float_of_int (misses + writebacks)

let pp fmt t =
  Format.fprintf fmt "template(E=%d,|refs|=%d,r=%g%s)" t.elem_size
    (Array.length t.refs) t.cache_ratio
    (match t.writes with Some _ -> ",rw" | None -> "")
