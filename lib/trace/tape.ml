(* A captured trace lives in chunks of two parallel unboxed [int] arrays:
   byte address, and the packed metadata word defined by
   [Cachesim.Cache.pack_access].  Chunks are fixed-size (default 65536
   events = two 512 KiB arrays, far past the minor-heap threshold, so
   capture never churns the minor collector) and are only ever appended
   to, which keeps [append] at two stores and an increment.

   Each chunk additionally carries a partition index, maintained at
   capture time: a coverage bitmap over [partition_buckets] buckets of
   the event's granule-line number ([addr lsr granule_shift], 8-byte
   granules) plus the min/max granule line the chunk touches.  The
   set-sharded walks consult it to skip whole chunks that cannot contain
   any line of the requested shard — see [bucket_mask] for why the
   bitmap can answer that question for any cache whose line size is a
   multiple of the granule.

   Chunks may also be deferred: a loaded tape ([Tape_io] v2) adopts
   chunks as (length, index, decode closure) triples over an mmap'd
   payload and only materializes the [int] arrays when a walk actually
   needs them — a chunk skipped by every shard is never decoded at all.
   Materialization is idempotent and lock-free ([Atomic]
   compare-and-set), so concurrent shard domains may race to decode the
   same chunk and simply agree on one winner. *)

type index = {
  coverage : int array; (* [coverage_words] words of [coverage_bits] bits *)
  mutable min_line : int; (* granule lines; [max_int] while empty *)
  mutable max_line : int; (* -1 while empty *)
}

type chunk = {
  addrs : int array;
  metas : int array;
  mutable len : int;
  index : index;
}

type deferred = {
  d_len : int;
  d_index : index;
  d_cell : chunk option Atomic.t;
  d_decode : unit -> int array * int array;
}

type entry = Ready of chunk | Deferred of deferred

type t = {
  chunk_capacity : int;
  mutable filled : entry list; (* full chunks, most recent first *)
  mutable filled_count : int; (* List.length filled, tracked incrementally *)
  mutable head : chunk; (* current partially filled chunk *)
  mutable total : int;
}

let default_chunk_events = 65536
let bytes_per_event = 2 * (Sys.word_size / 8)

(* {2 Partition index} *)

let granule_shift = 3 (* 8-byte granules: no config has a smaller line *)
let coverage_words = 8
let coverage_bits = 32
let partition_buckets = coverage_words * coverage_bits (* 256 *)
let bucket_bits = 8 (* log2 partition_buckets *)
let full_word = (1 lsl coverage_bits) - 1

let fresh_index () =
  { coverage = Array.make coverage_words 0; min_line = max_int; max_line = -1 }

(* Record one event's granule footprint.  [size] is in bytes; events
   spanning [>= partition_buckets] granules (>= 2 KiB) saturate the
   bitmap rather than looping. *)
let index_note idx ~addr ~size =
  let first = addr lsr granule_shift in
  let last = (addr + size - 1) lsr granule_shift in
  if first < idx.min_line then idx.min_line <- first;
  if last > idx.max_line then idx.max_line <- last;
  if last - first >= partition_buckets then
    Array.fill idx.coverage 0 coverage_words full_word
  else
    for g = first to last do
      let b = g land (partition_buckets - 1) in
      Array.unsafe_set idx.coverage (b lsr 5)
        (Array.unsafe_get idx.coverage (b lsr 5) lor (1 lsl (b land 31)))
    done

let fresh_chunk capacity =
  {
    addrs = Array.make capacity 0;
    metas = Array.make capacity 0;
    len = 0;
    index = fresh_index ();
  }

let create ?(chunk_events = default_chunk_events) () =
  if chunk_events <= 0 then
    invalid_arg
      (Printf.sprintf "Tape.create: chunk_events must be positive (got %d)"
         chunk_events);
  {
    chunk_capacity = chunk_events;
    filled = [];
    filled_count = 0;
    head = fresh_chunk chunk_events;
    total = 0;
  }

let length t = t.total
let chunk_events t = t.chunk_capacity

(* [filled_count] is maintained on every chunk retirement; telemetry
   gauges sample these per chunk, so recomputing [List.length t.filled]
   here used to make capture quadratic in tape length. *)
let chunk_count t = t.filled_count + if t.head.len > 0 then 1 else 0
let allocated_bytes t = (t.filled_count + 1) * t.chunk_capacity * bytes_per_event

let retire_head t =
  t.filled <- Ready t.head :: t.filled;
  t.filled_count <- t.filled_count + 1;
  t.head <- fresh_chunk t.chunk_capacity

let append t (e : Event.t) =
  if e.addr < 0 then invalid_arg "Tape.append: negative address";
  if t.head.len = t.chunk_capacity then retire_head t;
  let c = t.head in
  c.addrs.(c.len) <- e.addr;
  c.metas.(c.len) <-
    Cachesim.Cache.pack_access ~owner:e.owner ~write:e.write ~size:e.size;
  c.len <- c.len + 1;
  index_note c.index ~addr:e.addr ~size:e.size;
  t.total <- t.total + 1

(* Packed layout mirrored from [Cachesim.Cache.pack_access]; the shift is
   derived from [Cache.max_size] so the two cannot drift, and the
   equivalence is asserted once at module initialization. *)
let meta_owner_shift =
  let rec bits n = if n = 0 then 0 else 1 + bits (n lsr 1) in
  bits Cachesim.Cache.max_size + 1

let () =
  assert (
    Cachesim.Cache.pack_access ~owner:3 ~write:true ~size:5
    = (3 lsl meta_owner_shift) lor (5 lsl 1) lor 1)

(* Bulk capture: validate the whole batch up front (a failed batch
   leaves the tape untouched), then store runs directly into the chunk
   arrays, splitting only at chunk boundaries — no per-event boundary
   re-check and no per-event validation inside [pack_access].  Capture
   is the pipeline bottleneck, so this path is what [batch_sink] rides. *)
let append_batch t events n =
  if n < 0 || n > Array.length events then
    invalid_arg
      (Printf.sprintf "Tape.append_batch: bad count %d (have %d events)" n
         (Array.length events));
  for i = 0 to n - 1 do
    let e : Event.t = events.(i) in
    if e.addr < 0 then
      invalid_arg
        (Printf.sprintf "Tape.append_batch: negative address at index %d" i);
    if e.size <= 0 || e.size > Cachesim.Cache.max_size then
      invalid_arg
        (Printf.sprintf "Tape.append_batch: size %d out of range at index %d"
           e.size i);
    if e.owner < 0 || e.owner > Cachesim.Cache.max_owner then
      invalid_arg
        (Printf.sprintf "Tape.append_batch: owner %d out of range at index %d"
           e.owner i)
  done;
  let i = ref 0 in
  while !i < n do
    if t.head.len = t.chunk_capacity then retire_head t;
    let c = t.head in
    let run = min (n - !i) (t.chunk_capacity - c.len) in
    for k = 0 to run - 1 do
      let e : Event.t = Array.unsafe_get events (!i + k) in
      Array.unsafe_set c.addrs (c.len + k) e.addr;
      Array.unsafe_set c.metas (c.len + k)
        ((e.owner lsl meta_owner_shift)
        lor (e.size lsl 1)
        lor (if e.write then 1 else 0));
      index_note c.index ~addr:e.addr ~size:e.size
    done;
    c.len <- c.len + run;
    i := !i + run
  done;
  t.total <- t.total + n

let sink t : Recorder.sink = fun e -> append t e
let batch_sink t : Recorder.batch_sink = fun events n -> append_batch t events n

(* {2 Entries: materialization} *)

let entry_len = function Ready c -> c.len | Deferred d -> d.d_len
let entry_index = function Ready c -> c.index | Deferred d -> d.d_index

(* Decode a deferred chunk; on a CAS race the loser adopts the winner's
   arrays (both decoded the same mapped words, so either result is
   correct, and dropping one keeps every domain reading one copy). *)
let force t = function
  | Ready c -> c
  | Deferred d -> (
      match Atomic.get d.d_cell with
      | Some c -> c
      | None ->
          let addrs, metas = d.d_decode () in
          if
            Array.length addrs <> t.chunk_capacity
            || Array.length metas <> t.chunk_capacity
          then
            invalid_arg
              (Printf.sprintf
                 "Tape: deferred chunk decoder returned %d/%d-word arrays \
                  (chunk capacity %d)"
                 (Array.length addrs) (Array.length metas) t.chunk_capacity);
          let c = { addrs; metas; len = d.d_len; index = d.d_index } in
          if Atomic.compare_and_set d.d_cell None (Some c) then c
          else
            (match Atomic.get d.d_cell with
            | Some c -> c
            | None -> assert false))

let materialize t = List.iter (fun e -> ignore (force t e)) t.filled

(* Chunks in capture order: [filled] is most-recent-first, then the
   partial head (skipped when empty, so no walk dispatches an empty
   batch). *)
let entries t =
  List.rev (if t.head.len > 0 then Ready t.head :: t.filled else t.filled)

(* Raw iteration, decoding and [Tape_io.save] go through this one fold,
   handing out the chunk arrays themselves (no copying, no decoding a
   chunk more than once); replays walk views ([iter_view]). *)
let fold_chunks t ~init ~f =
  List.fold_left
    (fun acc e ->
      let c = force t e in
      f acc ~addrs:c.addrs ~metas:c.metas ~len:c.len)
    init (entries t)

type chunk_info = {
  ci_len : int;
  ci_coverage : int array;
  ci_min_line : int;
  ci_max_line : int;
}

let chunk_infos t =
  let info e =
    let idx = entry_index e in
    {
      ci_len = entry_len e;
      ci_coverage = Array.copy idx.coverage;
      ci_min_line = idx.min_line;
      ci_max_line = idx.max_line;
    }
  in
  let infos = List.rev_map info t.filled in
  if t.head.len > 0 then infos @ [ info (Ready t.head) ] else infos

(* {2 Chunk adoption (the [Tape_io] load path)} *)

let check_adoptable t ~len =
  if len < 0 || len > t.chunk_capacity then
    invalid_arg
      (Printf.sprintf "Tape: bad adopted chunk length %d (capacity %d)" len
         t.chunk_capacity);
  if t.head.len > 0 then
    invalid_arg
      "Tape: tape ends in a partial chunk; adopted chunks can only follow \
       full ones"

let check_index ~coverage ~min_line ~max_line ~len =
  if Array.length coverage <> coverage_words then
    invalid_arg
      (Printf.sprintf "Tape: adopted chunk index has %d coverage words (want %d)"
         (Array.length coverage) coverage_words);
  Array.iter
    (fun w ->
      if w < 0 || w > full_word then
        invalid_arg "Tape: adopted chunk coverage word out of range")
    coverage;
  if len > 0 && (min_line < 0 || max_line < min_line) then
    invalid_arg
      (Printf.sprintf "Tape: adopted chunk line range [%d, %d] invalid"
         min_line max_line)

let append_deferred_chunk t ~len ~coverage ~min_line ~max_line ~decode =
  check_adoptable t ~len;
  check_index ~coverage ~min_line ~max_line ~len;
  if len = 0 then ()
  else begin
    let index = { coverage = Array.copy coverage; min_line; max_line } in
    if len = t.chunk_capacity then begin
      t.filled <-
        Deferred { d_len = len; d_index = index; d_cell = Atomic.make None;
                   d_decode = decode }
        :: t.filled;
      t.filled_count <- t.filled_count + 1
    end
    else begin
      (* A partial chunk becomes the (mutable, appendable) head, so it is
         decoded eagerly; at most one per tape. *)
      let addrs, metas = decode () in
      if
        Array.length addrs <> t.chunk_capacity
        || Array.length metas <> t.chunk_capacity
      then
        invalid_arg
          "Tape.append_deferred_chunk: decoder returned arrays of the wrong \
           capacity";
      t.head <- { addrs; metas; len; index }
    end;
    t.total <- t.total + len
  end

(* {2 Shard selectors}

   [bucket_mask ~line_shift ~eff ~shard] answers: which coverage buckets
   could an event occupy if it touches a cache line owned by [shard]
   (i.e. [line land (eff - 1) = shard] for a cache whose lines are
   [1 lsl line_shift] bytes)?  With [d = line_shift - granule_shift],
   a granule [g] lies in cache line [g lsr d], and its bucket is
   [g land (partition_buckets - 1)] — the low [bucket_bits] bits of
   [g].  The shard condition constrains bits [d .. d + log2 eff - 1] of
   [g]; when that bit range fits inside the recorded low [bucket_bits]
   bits, membership is decidable from the bucket alone and the mask is
   exact: a chunk whose coverage misses the mask contains no event
   touching any of [shard]'s lines.  When it does not fit (a line
   smaller than the granule, or [d + log2 eff > bucket_bits]) the bitmap
   cannot restrict that consumer and the walk falls back to scanning
   every chunk — never the other way around. *)

type selector = Walk_all | Skip_all | Buckets of int array

let log2_pow2 n =
  let rec go acc n = if n <= 1 then acc else go (acc + 1) (n lsr 1) in
  go 0 n

let bucket_mask ~line_shift ~eff ~shard =
  let d = line_shift - granule_shift in
  if d < 0 || d + log2_pow2 eff > bucket_bits then None
  else begin
    let m = Array.make coverage_words 0 in
    for b = 0 to partition_buckets - 1 do
      if (b lsr d) land (eff - 1) = shard then
        m.(b lsr 5) <- m.(b lsr 5) lor (1 lsl (b land 31))
    done;
    Some m
  end

(* Union of per-consumer masks.  [keys] lists (line_shift, eff) for every
   consumer that actually owns sets of this shard; an empty list means no
   consumer does and the whole walk is a no-op. *)
let selector_union keys ~shard =
  List.fold_left
    (fun acc (line_shift, eff) ->
      match acc with
      | Walk_all -> Walk_all
      | acc -> (
          match bucket_mask ~line_shift ~eff ~shard with
          | None -> Walk_all
          | Some m -> (
              match acc with
              | Skip_all -> Buckets m
              | Buckets m0 ->
                  Buckets (Array.init coverage_words (fun i -> m0.(i) lor m.(i)))
              | Walk_all -> assert false)))
    Skip_all keys

(* Chunk skipping must not break the logical event clock: a skipped
   chunk's events never advance [Cache.now], which is unobservable
   except under residency accounting — so any attached residency
   accumulator forces the full walk. *)
let cache_selector caches ~shards ~shard =
  if Array.exists (fun c -> Cachesim.Cache.residency c <> None) caches then
    Walk_all
  else
    selector_union ~shard
      (Array.to_list caches
      |> List.filter_map (fun c ->
             let eff = Cachesim.Cache.effective_shards c ~shards in
             if shard >= eff then None
             else
               Some
                 ( log2_pow2 (Cachesim.Cache.config c).Cachesim.Config.line,
                   eff )))

let hierarchy_selector hierarchies ~shards ~shard =
  let has_residency h =
    let rec go i =
      i < Cachesim.Hierarchy.depth h
      && (Cachesim.Cache.residency (Cachesim.Hierarchy.level_cache h i) <> None
         || go (i + 1))
    in
    go 0
  in
  if Array.exists has_residency hierarchies then Walk_all
  else
    selector_union ~shard
      (Array.to_list hierarchies
      |> List.filter_map (fun h ->
             let eff = min shards (Cachesim.Hierarchy.max_shards h) in
             if shard >= eff then None
             else
               let line =
                 (List.hd (Cachesim.Hierarchy.configs h)).Cachesim.Config.line
               in
               Some (log2_pow2 line, eff)))

let check_shards ~shards ~shard =
  if shards <= 0 || shards land (shards - 1) <> 0 then
    invalid_arg
      (Printf.sprintf "Tape: shards must be a positive power of two (got %d)"
         shards);
  if shard < 0 || shard >= shards then
    invalid_arg
      (Printf.sprintf "Tape: shard %d out of range (0..%d)" shard (shards - 1))

let index_intersects idx mask =
  let rec go i =
    i < coverage_words
    && (Array.unsafe_get idx.coverage i land Array.unsafe_get mask i <> 0
       || go (i + 1))
  in
  go 0

let selected sel idx =
  match sel with
  | Walk_all -> true
  | Skip_all -> false
  | Buckets m -> index_intersects idx m

(* {2 Views and replay}

   Every replay walks a view: one shard's chunk list, selected up front
   from the partition index.  The cache-array replays below are thin
   wrappers that build the view on the fly; [partition] builds every
   shard's view at once so [N] shard domains each traverse only their
   slice. *)

type view = {
  v_tape : t;
  v_shards : int;
  v_shard : int;
  v_selector : selector;
  v_entries : entry list; (* selected chunks, capture order, head included *)
  v_events : int;
  v_skipped : int;
}

let view_shard v = v.v_shard
let view_shards v = v.v_shards
let view_chunks v = List.length v.v_entries
let view_events v = v.v_events
let view_chunks_skipped v = v.v_skipped

let make_view t all_entries ~shards ~shard sel =
  let entries, events, skipped =
    List.fold_left
      (fun (es, ev, sk) e ->
        if selected sel (entry_index e) then (e :: es, ev + entry_len e, sk)
        else (es, ev, sk + 1))
      ([], 0, 0) all_entries
  in
  {
    v_tape = t;
    v_shards = shards;
    v_shard = shard;
    v_selector = sel;
    v_entries = List.rev entries;
    v_events = events;
    v_skipped = skipped;
  }

let partition_with t ~shards ~selector_of =
  if shards <= 0 || shards land (shards - 1) <> 0 then
    invalid_arg
      (Printf.sprintf
         "Tape.partition: shards must be a positive power of two (got %d)"
         shards);
  let all_entries = entries t in
  Array.init shards (fun shard ->
      make_view t all_entries ~shards ~shard (selector_of ~shard))

let partition t caches ~shards =
  partition_with t ~shards ~selector_of:(fun ~shard ->
      cache_selector caches ~shards ~shard)

let partition_hierarchies t hierarchies ~shards =
  partition_with t ~shards ~selector_of:(fun ~shard ->
      hierarchy_selector hierarchies ~shards ~shard)

(* A view's chunk selection is only sound for consumers with the same
   partition key the view was built from, so the replays recompute the
   selector from the consumers they are handed and refuse a mismatch
   (different geometry, or a residency accumulator that appeared since
   [partition]) instead of silently dropping events. *)
let check_view_selector v sel =
  if sel <> v.v_selector then
    invalid_arg
      "Tape.replay_view: consumers do not match the ones this view was \
       partitioned for (geometry or residency accounting changed)"

let iter_view v f =
  List.iter
    (fun e ->
      let c = force v.v_tape e in
      f ~addrs:c.addrs ~metas:c.metas ~len:c.len)
    v.v_entries

let replay_view v caches =
  check_view_selector v (cache_selector caches ~shards:v.v_shards ~shard:v.v_shard);
  iter_view v (fun ~addrs ~metas ~len ->
      Array.iter
        (fun cache ->
          Cachesim.Cache.access_batch cache ~addrs ~metas ~pos:0 ~len
            ~shards:v.v_shards ~shard:v.v_shard ~fill:Cachesim.Cache.nofeed
            ~spill:Cachesim.Cache.nofeed)
        caches)

let replay_view_hierarchies v hierarchies =
  check_view_selector v
    (hierarchy_selector hierarchies ~shards:v.v_shards ~shard:v.v_shard);
  iter_view v (fun ~addrs ~metas ~len ->
      Array.iter
        (fun h ->
          Cachesim.Hierarchy.access_batch h ~addrs ~metas ~pos:0 ~len
            ~shards:v.v_shards ~shard:v.v_shard)
        hierarchies)

(* Set-sharded fused walk: one pass over the tape, each cache touched
   only on [shard]'s lines.  Every cache clamps the shard count to its
   own set count, so heterogeneous sweep geometries neither drop nor
   duplicate work.  Chunks whose partition index proves them disjoint
   from [shard]'s lines (for every cache) are skipped without being
   walked — or, for deferred chunks, decoded. *)
let replay_fused_sharded ?skipped t caches ~shards ~shard =
  check_shards ~shards ~shard;
  let v =
    make_view t (entries t) ~shards ~shard
      (cache_selector caches ~shards ~shard)
  in
  Option.iter (fun r -> r := !r + v.v_skipped) skipped;
  replay_view v caches

let replay_fused t caches = replay_fused_sharded t caches ~shards:1 ~shard:0

let iter t f =
  fold_chunks t ~init:() ~f:(fun () ~addrs ~metas ~len ->
      for i = 0 to len - 1 do
        let owner, write, size = Cachesim.Cache.unpack_access metas.(i) in
        f { Event.owner; write; addr = addrs.(i); size }
      done)

let to_list t =
  let acc = ref [] in
  iter t (fun e -> acc := e :: !acc);
  List.rev !acc
