(* Slot state is stored structure-of-arrays per cache: for slot [s*CA+w]:
   tag (line number, -1 when invalid), owner, dirty flag and last-use stamp.
   LRU uses a monotonically increasing clock; 63-bit ints cannot wrap in
   any realistic simulation.

   Alongside the LRU clock the cache keeps a *logical event clock*
   [now]: the ordinal of the reference event being processed (batch
   entry points advance it by the batch length; the residency-enabled
   walks set it per event).  With a [Residency.t] attached, every
   line additionally carries the start time of its current clean or
   dirty phase in [res_start], and phase transitions — fill, first
   dirtying write, eviction, flush — close the open phase into the
   accumulator.  With no residency attached the specialized walks are
   untouched and [now] costs one addition per batch. *)

type t = {
  config : Config.t;
  stats : Stats.t;
  tags : int array;
  owners : int array;
  dirty : bool array;
  stamps : int array;
  mutable clock : int;
  line_shift : int;
  set_mask : int;
  mutable now : int;
  mutable res : Residency.t option;
  mutable res_start : int array;
}

let log2 n =
  let rec loop acc n = if n <= 1 then acc else loop (acc + 1) (n lsr 1) in
  loop 0 n

let create config =
  let open Config in
  (* [Config.make] already enforces power-of-two geometry; re-check here
     because [line_shift]/[set_mask] silently mis-index otherwise, and a
     loud failure beats a subtly wrong simulation if the smart constructor
     is ever bypassed. *)
  if not (Config.is_power_of_two config.sets) then
    invalid_arg
      (Printf.sprintf "Cache.create: sets must be a power of two (got %d)"
         config.sets);
  if not (Config.is_power_of_two config.line) then
    invalid_arg
      (Printf.sprintf "Cache.create: line must be a power of two (got %d)"
         config.line);
  let slots = config.associativity * config.sets in
  {
    config;
    stats = Stats.create ();
    tags = Array.make slots (-1);
    owners = Array.make slots 0;
    dirty = Array.make slots false;
    stamps = Array.make slots 0;
    clock = 0;
    line_shift = log2 config.line;
    set_mask = config.sets - 1;
    now = 0;
    res = None;
    res_start = [||];
  }

let config t = t.config
let stats t = t.stats
let now t = t.now
let set_now t time =
  if time < 0 then invalid_arg "Cache.set_now: negative time";
  t.now <- time

let residency t = t.res

let attach_residency t res =
  if Array.length t.res_start = 0 then
    t.res_start <- Array.make (Array.length t.tags) 0
  else Array.fill t.res_start 0 (Array.length t.res_start) 0;
  t.res <- Some res

(* Core lookup on a line *number* (byte address already shifted).  Every
   entry point funnels here, so [access]/[access_batch] split a request
   with one shift per boundary instead of the two integer divisions the
   byte-address API used to pay per line.  [fill]/[spill] report the
   next-level traffic of a miss ([nofeed] for callers that don't care);
   the hit/miss/writeback decisions are the contract every specialized
   walk below must reproduce exactly. *)
let nofeed ~owner:_ ~line:_ = ()

let touch_feed t ~owner ~write ~line ~fill ~spill =
  let set = line land t.set_mask in
  let ca = t.config.Config.associativity in
  let base = set * ca in
  t.clock <- t.clock + 1;
  (* Search the set for the tag; track LRU victim as we go. *)
  let hit_way = ref (-1) in
  let victim = ref base in
  let victim_stamp = ref max_int in
  for w = base to base + ca - 1 do
    if t.tags.(w) = line then hit_way := w;
    if t.stamps.(w) < !victim_stamp then begin
      victim_stamp := t.stamps.(w);
      victim := w
    end
  done;
  let hit = !hit_way >= 0 in
  Stats.record_access t.stats ~owner ~write ~hit;
  if hit then begin
    let w = !hit_way in
    t.stamps.(w) <- t.clock;
    if write then begin
      (match t.res with
      | Some res when not t.dirty.(w) ->
          (* first dirtying write: the clean phase ends here *)
          Residency.record_interval res ~owner:t.owners.(w) ~dirty:false
            ~t0:t.res_start.(w) ~t1:t.now;
          t.res_start.(w) <- t.now
      | _ -> ());
      t.dirty.(w) <- true
    end
  end
  else begin
    let w = !victim in
    if t.tags.(w) >= 0 then begin
      if t.dirty.(w) then begin
        Stats.record_writeback t.stats ~owner:t.owners.(w);
        spill ~owner:t.owners.(w) ~line:t.tags.(w)
      end;
      match t.res with
      | Some res ->
          Residency.record_interval res ~owner:t.owners.(w) ~dirty:t.dirty.(w)
            ~t0:t.res_start.(w) ~t1:t.now;
          Residency.record_eviction res ~owner:t.owners.(w)
      | None -> ()
    end;
    t.tags.(w) <- line;
    t.owners.(w) <- owner;
    t.dirty.(w) <- write;
    t.stamps.(w) <- t.clock;
    (match t.res with
    | Some res ->
        t.res_start.(w) <- t.now;
        Residency.record_fill res ~owner
    | None -> ());
    fill ~owner ~line
  end;
  hit

let touch t ~owner ~write ~line =
  touch_feed t ~owner ~write ~line ~fill:nofeed ~spill:nofeed

let touch_line t ~owner ~write ~line_addr =
  if line_addr < 0 then invalid_arg "Cache.touch_line: negative address";
  let hit = touch t ~owner ~write ~line:(line_addr lsr t.line_shift) in
  t.now <- t.now + 1;
  hit

let access t ~owner ~write ~addr ~size =
  if size <= 0 then invalid_arg "Cache.access: non-positive size";
  if addr < 0 then invalid_arg "Cache.access: negative address";
  let first = addr lsr t.line_shift in
  let last = (addr + size - 1) lsr t.line_shift in
  for line = first to last do
    ignore (touch t ~owner ~write ~line)
  done;
  t.now <- t.now + 1

(* --- packed bulk interface ---

   One event is two ints: the byte address, and a metadata word packing
   write (bit 0), size (bits 1..30) and owner (bits 31+).  The layout is
   shared with [Memtrace.Tape], which stores captured traces in columnar
   [addrs]/[metas] arrays and streams whole chunks back through
   [access_batch] — one closure dispatch and one bounds check per chunk
   instead of per event. *)

let meta_size_bits = 30
let max_size = (1 lsl meta_size_bits) - 1
let meta_owner_shift = meta_size_bits + 1
let max_owner = max_int lsr meta_owner_shift

let pack_access ~owner ~write ~size =
  if size <= 0 || size > max_size then
    invalid_arg
      (Printf.sprintf "Cache.pack_access: size %d out of range (1..%d)" size
         max_size);
  if owner < 0 || owner > max_owner then
    invalid_arg
      (Printf.sprintf "Cache.pack_access: owner %d out of range (0..%d)" owner
         max_owner);
  (owner lsl meta_owner_shift)
  lor (size lsl 1)
  lor (if write then 1 else 0)

let unpack_access meta =
  ( meta lsr meta_owner_shift,
    meta land 1 = 1,
    (meta lsr 1) land max_size )

(* Whole-range validation before any state change: a bad event mid-batch
   used to abort the walk half-applied, leaving tags and statistics torn.
   Validating up front means a failed batch leaves the cache untouched —
   and lets the walks below index with [Array.unsafe_get]. *)
let validate_batch ~addrs ~metas ~pos ~len =
  if
    pos < 0 || len < 0
    || pos + len > Array.length addrs
    || pos + len > Array.length metas
  then
    invalid_arg
      (Printf.sprintf
         "Cache.access_batch: bad range pos=%d len=%d (addrs %d, metas %d)"
         pos len (Array.length addrs) (Array.length metas));
  for i = pos to pos + len - 1 do
    if addrs.(i) < 0 then
      invalid_arg
        (Printf.sprintf "Cache.access_batch: negative address at index %d" i)
  done

let validate_times ~times ~pos ~len =
  if pos + len > Array.length times then
    invalid_arg
      (Printf.sprintf "Cache: bad times range pos=%d len=%d (times %d)" pos len
         (Array.length times))

(* --- the packed walk ---

   Every set's LRU state is independent of every other set's, so a batch
   can be partitioned by set index across domains with zero locking: a
   line belongs to shard [line land (eff - 1)] where [eff] is the shard
   count clamped to the set count (both powers of two, so the shard bits
   are the low bits of the set index and a set is never split between
   shards).  Each shard walks the whole batch and touches only its own
   lines; per-set decision sequences are exactly the serial ones, so
   [Stats.merge] over the shard caches reproduces the serial statistics
   bit for bit.  [~shards:1 ~shard:0] is the full walk.

   This is the throughput path, so the walk is specialized: addresses
   were validated up front (unsafe indexing is safe), and the way scan
   exits on the first tag match instead of tracking the LRU victim on
   hits — the victim scan runs only on a miss.  Decisions are identical
   to [touch_feed]'s, and so is the feed: the victim's [spill] fires
   before the missing line's [fill].

   With a residency accumulator attached the walk drops to the generic
   [touch_feed] path with the event clock set per event — every shard
   sees every event ordinal, so per-line phase timestamps are identical
   to the serial walk's and the merged accumulators are bit-identical.
   The same generic walk serves [access_batch_timed], whose clock comes
   from a caller-supplied [times] column instead. *)

let check_shards ~shards ~shard =
  if shards <= 0 || shards land (shards - 1) <> 0 then
    invalid_arg
      (Printf.sprintf
         "Cache: shards must be a positive power of two (got %d)" shards);
  if shard < 0 || shard >= shards then
    invalid_arg
      (Printf.sprintf "Cache: shard %d out of range (0..%d)" shard (shards - 1))

let effective_shards t ~shards =
  if shards <= 0 || shards land (shards - 1) <> 0 then
    invalid_arg
      (Printf.sprintf
         "Cache: shards must be a positive power of two (got %d)" shards);
  min shards t.config.Config.sets

(* [touch_feed] per line of the shard; the clock is [times.(i)] when
   given, the implicit [now0 + (i - pos)] otherwise. *)
let generic_walk t ~addrs ~metas ~times ~pos ~len ~mask ~shard ~fill ~spill =
  let shift = t.line_shift in
  let now0 = t.now in
  for i = pos to pos + len - 1 do
    t.now <-
      (match times with
      | Some times -> Array.unsafe_get times i
      | None -> now0 + (i - pos));
    let addr = Array.unsafe_get addrs i in
    let meta = Array.unsafe_get metas i in
    let owner = meta lsr meta_owner_shift in
    let write = meta land 1 = 1 in
    let first = addr lsr shift in
    let last = (addr + ((meta lsr 1) land max_size) - 1) lsr shift in
    for line = first to last do
      if line land mask = shard then
        ignore (touch_feed t ~owner ~write ~line ~fill ~spill)
    done
  done

let access_batch t ~addrs ~metas ~pos ~len ~shards ~shard ~fill ~spill =
  check_shards ~shards ~shard;
  validate_batch ~addrs ~metas ~pos ~len;
  let eff = min shards t.config.Config.sets in
  let now0 = t.now in
  (* With fewer usable shards than requested (tiny cache), shards
     [eff..shards-1] own no sets of this cache: lines are partitioned by
     [line land (eff - 1)], which only shards [0..eff-1] can match. *)
  (if shard < eff then
     match t.res with
     | Some _ ->
         generic_walk t ~addrs ~metas ~times:None ~pos ~len ~mask:(eff - 1)
           ~shard ~fill ~spill
     | None ->
         let mask = eff - 1 in
         let shift = t.line_shift in
         let set_mask = t.set_mask in
         let ca = t.config.Config.associativity in
         let tags = t.tags
         and owners = t.owners
         and dirty = t.dirty
         and stamps = t.stamps in
         for i = pos to pos + len - 1 do
           let addr = Array.unsafe_get addrs i in
           let meta = Array.unsafe_get metas i in
           let owner = meta lsr meta_owner_shift in
           let write = meta land 1 = 1 in
           let first = addr lsr shift in
           let last = (addr + ((meta lsr 1) land max_size) - 1) lsr shift in
           for line = first to last do
             if line land mask = shard then begin
               let base = (line land set_mask) * ca in
               let limit = base + ca in
               t.clock <- t.clock + 1;
               let w = ref base in
               while !w < limit && Array.unsafe_get tags !w <> line do
                 incr w
               done;
               if !w < limit then begin
                 let w = !w in
                 Stats.record_access t.stats ~owner ~write ~hit:true;
                 Array.unsafe_set stamps w t.clock;
                 if write then Array.unsafe_set dirty w true
               end
               else begin
                 Stats.record_access t.stats ~owner ~write ~hit:false;
                 let victim = ref base and victim_stamp = ref max_int in
                 for w = base to limit - 1 do
                   if Array.unsafe_get stamps w < !victim_stamp then begin
                     victim_stamp := Array.unsafe_get stamps w;
                     victim := w
                   end
                 done;
                 let w = !victim in
                 if Array.unsafe_get tags w >= 0 && Array.unsafe_get dirty w
                 then begin
                   Stats.record_writeback t.stats
                     ~owner:(Array.unsafe_get owners w);
                   spill
                     ~owner:(Array.unsafe_get owners w)
                     ~line:(Array.unsafe_get tags w)
                 end;
                 Array.unsafe_set tags w line;
                 Array.unsafe_set owners w owner;
                 Array.unsafe_set dirty w write;
                 Array.unsafe_set stamps w t.clock;
                 fill ~owner ~line
               end
             end
           done
         done);
  t.now <- now0 + len

(* A deeper hierarchy level's input events are fills and spills, whose
   logical times are the *originating* program-event ordinals, not this
   cache's own event count — so the caller supplies a parallel [times]
   array (non-decreasing) instead of the implicit [now0 + i] clock.
   Used only by [Hierarchy] in timed mode; the final [now] is the last
   event's time. *)
let access_batch_timed t ~addrs ~metas ~times ~pos ~len ~fill ~spill =
  validate_batch ~addrs ~metas ~pos ~len;
  validate_times ~times ~pos ~len;
  generic_walk t ~addrs ~metas ~times:(Some times) ~pos ~len ~mask:0 ~shard:0
    ~fill ~spill

let set_of_addr t addr =
  if addr < 0 then invalid_arg "Cache.set_of_addr: negative address";
  (addr lsr t.line_shift) land t.set_mask

(* End-of-run eviction of everything resident.  With residency
   attached, every surviving line's open phase is closed at the current
   event clock — the driver sets [now] to the run horizon first
   ([set_now]) so end-of-run exposure is counted up to the horizon and
   no further. *)
let flush t =
  Array.iteri
    (fun w tag ->
      if tag >= 0 then begin
        if t.dirty.(w) then Stats.record_writeback t.stats ~owner:t.owners.(w);
        (match t.res with
        | Some res ->
            Residency.record_interval res ~owner:t.owners.(w)
              ~dirty:t.dirty.(w) ~t0:t.res_start.(w) ~t1:t.now;
            Residency.record_flush res ~owner:t.owners.(w)
        | None -> ());
        t.tags.(w) <- -1;
        t.dirty.(w) <- false;
        t.stamps.(w) <- 0
      end)
    t.tags

(* [flush], but every dirty line's write-back is also handed to [spill]
   (slot order, i.e. set-major) so a next cache level can absorb it. *)
let flush_feed t ~spill =
  Array.iteri
    (fun w tag ->
      if tag >= 0 then begin
        if t.dirty.(w) then begin
          Stats.record_writeback t.stats ~owner:t.owners.(w);
          spill ~owner:t.owners.(w) ~line:tag
        end;
        (match t.res with
        | Some res ->
            Residency.record_interval res ~owner:t.owners.(w)
              ~dirty:t.dirty.(w) ~t0:t.res_start.(w) ~t1:t.now;
            Residency.record_flush res ~owner:t.owners.(w)
        | None -> ());
        t.tags.(w) <- -1;
        t.dirty.(w) <- false;
        t.stamps.(w) <- 0
      end)
    t.tags

let invalidate t =
  Array.fill t.tags 0 (Array.length t.tags) (-1);
  Array.fill t.dirty 0 (Array.length t.dirty) false;
  Array.fill t.stamps 0 (Array.length t.stamps) 0

let resident_lines t ~owner =
  let count = ref 0 in
  Array.iteri
    (fun w tag -> if tag >= 0 && t.owners.(w) = owner then incr count)
    t.tags;
  !count
