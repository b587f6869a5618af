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
  (* (index + 1) * elem_size must not overflow, or two distinct elements
     could lower to the same block. *)
  let top = (max_int / elem_size) - 1 in
  Array.iter
    (fun i ->
      if i < 0 then invalid_arg "Template.make: negative element index";
      if i > top then invalid_arg "Template.make: element index too large")
    refs;
  (match writes with
  | Some w when Array.length w <> Array.length refs ->
      invalid_arg "Template.make: writes length mismatch"
  | _ -> ());
  { elem_size; refs; writes; cache_ratio; distance }

let first_block ~line t elem = elem * t.elem_size / line
let last_block ~line t elem = ((elem * t.elem_size) + t.elem_size - 1) / line

(* The number of block references, without lowering. *)
let block_count ~line t =
  Array.fold_left
    (fun acc elem -> acc + last_block ~line t elem - first_block ~line t elem + 1)
    0 t.refs

let block_trace ~line t =
  if line <= 0 then invalid_arg "Template.block_trace: line <= 0";
  let count = block_count ~line t in
  let blocks = Array.make count 0 and flags = Array.make count false in
  let i = ref 0 in
  Array.iteri
    (fun pos elem ->
      let w = match t.writes with Some ws -> ws.(pos) | None -> false in
      for b = first_block ~line t elem to last_block ~line t elem do
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

(* The two-step algorithm with LRU stack distances: a re-referenced block
   misses iff at least [capacity] distinct blocks were touched since its
   previous reference, which is exactly "the block is not resident in
   a fully associative LRU cache of [capacity] blocks".  So the model is
   that cache, walked in O(1) per reference: an intrusive recency list in
   two arrays indexed by block id (MRU at [head]) and one state byte per
   block.  A dirty block's eviction is a writeback, and so is every dirty
   block still resident at the end (the end-of-run flush). *)
let absent = '\000'
let clean = '\001'
let dirty = '\002'

type lru = {
  capacity : int;
  prev : int array;
  next : int array;
  state : Bytes.t;
  mutable head : int;
  mutable tail : int;
  mutable resident : int;
  mutable misses : int;
  mutable writebacks : int;
}

(* A cache over block ids in [0, slots). *)
let lru_create ~capacity ~slots =
  {
    capacity;
    prev = Array.make slots (-1);
    next = Array.make slots (-1);
    state = Bytes.make slots absent;
    head = -1;
    tail = -1;
    resident = 0;
    misses = 0;
    writebacks = 0;
  }

let unlink c b =
  let p = c.prev.(b) and n = c.next.(b) in
  if p >= 0 then c.next.(p) <- n else c.head <- n;
  if n >= 0 then c.prev.(n) <- p else c.tail <- p

let push_front c b =
  c.prev.(b) <- -1;
  c.next.(b) <- c.head;
  if c.head >= 0 then c.prev.(c.head) <- b else c.tail <- b;
  c.head <- b

let touch c b write =
  if Bytes.get c.state b = absent then begin
    c.misses <- c.misses + 1;
    if c.resident = c.capacity then begin
      let victim = c.tail in
      unlink c victim;
      if Bytes.get c.state victim = dirty then c.writebacks <- c.writebacks + 1;
      Bytes.set c.state victim absent
    end
    else c.resident <- c.resident + 1;
    push_front c b;
    Bytes.set c.state b (if write then dirty else clean)
  end
  else begin
    if c.head <> b then begin
      unlink c b;
      push_front c b
    end;
    if write then Bytes.set c.state b dirty
  end

let lru_finish c =
  let b = ref c.head in
  while !b >= 0 do
    if Bytes.get c.state !b = dirty then c.writebacks <- c.writebacks + 1;
    b := c.next.(!b)
  done;
  (c.misses, c.writebacks)

(* An explicit trace may hold any ids, so they are first renumbered in
   first-touch order: a bijection, which leaves LRU behaviour unchanged,
   onto ids that need at most one table slot per reference. *)
let run_stack ~capacity trace wflags =
  let ids = Hashtbl.create 1024 in
  let trace =
    Array.map
      (fun b ->
        match Hashtbl.find_opt ids b with
        | Some id -> id
        | None ->
            let id = Hashtbl.length ids in
            Hashtbl.add ids b id;
            id)
      trace
  in
  let c = lru_create ~capacity ~slots:(Hashtbl.length ids) in
  (match wflags with
  | None -> Array.iter (fun b -> touch c b false) trace
  | Some ws -> Array.iteri (fun i b -> touch c b ws.(i)) trace);
  lru_finish c

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
  let line = cache.Cachesim.Config.line in
  let capacity = available_blocks ~cache t in
  (* The highest block id; each element is at least one block reference,
     so [top < |refs|] settles most templates without counting them. *)
  let top = last_block ~line t (Array.fold_left Int.max 0 t.refs) in
  let dense = top < Array.length t.refs || top < block_count ~line t in
  let misses, writebacks =
    if t.distance = `Stack && dense then begin
      (* Every block id lies in [0, n): walk the element stream itself. *)
      let c = lru_create ~capacity ~slots:(top + 1) in
      Array.iteri
        (fun pos elem ->
          let w = match t.writes with Some ws -> ws.(pos) | None -> false in
          for b = first_block ~line t elem to last_block ~line t elem do
            touch c b w
          done)
        t.refs;
      lru_finish c
    end
    else
      let trace, wflags = block_trace ~line t in
      let writes = if t.writes = None then None else Some wflags in
      accesses_on_blocks ~capacity ~distance:t.distance ~writes trace
  in
  float_of_int (misses + writebacks)

let pp fmt t =
  Format.fprintf fmt "template(E=%d,|refs|=%d,r=%g%s)" t.elem_size
    (Array.length t.refs) t.cache_ratio
    (match t.writes with Some _ -> ",rw" | None -> "")
