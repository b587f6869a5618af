(* Slot state is stored structure-of-arrays per cache: for slot [s*CA+w]:
   tag (line number, -1 when invalid), owner, dirty flag and last-use stamp.
   LRU uses a monotonically increasing clock; 63-bit ints cannot wrap in
   any realistic simulation.

   Alongside the LRU clock the cache keeps a *logical event clock*
   [now]: the ordinal of the reference event being processed (the
   packed walk publishes it on each miss).  With a [Residency.t]
   attached, every line additionally carries the start time of its
   current clean or dirty phase in [res_start], and phase transitions —
   fill, first dirtying write, eviction, flush — close the open phase
   into the accumulator.  A hit that changes no phase does no residency
   work. *)

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

let nofeed ~owner:_ ~line:_ = ()

(* The per-event oracle behind [access] and [touch_line]: one lookup on a
   line *number* (byte address already shifted), written for clarity —
   it tracks the LRU victim on every lookup.  Its hit/miss/writeback
   decisions and residency phases are the contract the packed walk
   below must reproduce exactly. *)
let touch t ~owner ~write ~line =
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
      if t.dirty.(w) then Stats.record_writeback t.stats ~owner:t.owners.(w);
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
    match t.res with
    | Some res ->
        t.res_start.(w) <- t.now;
        Residency.record_fill res ~owner
    | None -> ()
  end;
  hit

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

(* --- the packed event ---

   One event is one immediate int, so a captured trace is one unboxed
   [int] array per chunk ([Memtrace.Tape]) that streams through
   [access_batch] with one call and one bounds check per chunk.  Bit 0
   is the write flag, bits 1..13 the size, bits 14..22 the owner and
   bits 23..61 the byte address, so every valid word is non-negative.
   Only this file knows the shifts: other modules use [pack] and the
   accessors. *)

let owner_shift = 14
let addr_shift = 23
let max_size = (1 lsl 13) - 1
let max_owner = (1 lsl 9) - 1
let max_addr = (1 lsl 39) - 1

let pack ~owner ~write ~addr ~size =
  if size <= 0 || size > max_size || owner < 0 || owner > max_owner
     || addr < 0 || addr > max_addr - size + 1
  then
    invalid_arg
      (Printf.sprintf
         "Cache.pack: owner %d, address %d, size %d outside owner 0..%d, \
          size 1..%d, bytes 0..%d"
         owner addr size max_owner max_size max_addr);
  (addr lsl addr_shift)
  lor (owner lsl owner_shift)
  lor (size lsl 1)
  lor Bool.to_int write

let event_addr w = w lsr addr_shift
let event_owner w = (w lsr owner_shift) land max_owner
let event_size w = (w lsr 1) land max_size
let event_write w = w land 1 = 1

(* Whole-range validation before any state change: a bad event mid-batch
   used to abort the walk half-applied, leaving tags and statistics torn.
   Validating up front means a failed batch leaves the cache untouched —
   and lets the walk below index with [Array.unsafe_get]. *)
let check_words ~fn ~events ~pos ~len =
  if pos < 0 || len < 0 || pos + len > Array.length events then
    invalid_arg
      (Printf.sprintf "%s: bad range pos=%d len=%d (events %d)" fn pos len
         (Array.length events));
  (* A non-negative word's address is below 2^39 by construction. *)
  for i = pos to pos + len - 1 do
    let w = events.(i) in
    if w < 0 || event_size w = 0 || event_addr w + event_size w - 1 > max_addr
    then invalid_arg (Printf.sprintf "%s: invalid event word at index %d" fn i)
  done

let validate_batch ~events ~pos ~len =
  check_words ~fn:"Cache.access_batch" ~events ~pos ~len

(* --- validated words ---

   A buffer whose live words [0 .. len-1] are all valid, by
   construction: [add] writes only what [pack] returns, [adopt] checks
   an array before taking it, and [add_elem] writes an element of a
   range whose first and last words were packed when it was made, so
   the walks of a [Words.t] ([access_words], [access_words_timed],
   [Sweep.access_words]) skip [validate_batch].  A tape's chunks and a
   hierarchy's funnel are such buffers; a word is checked once, where
   it enters one.  [swap] only moves valid words between buffers. *)
module Words = struct
  type t = { mutable events : int array; mutable len : int }

  let create capacity =
    if capacity <= 0 then
      invalid_arg
        (Printf.sprintf "Cache.Words.create: capacity %d" capacity);
    { events = Array.make capacity 0; len = 0 }

  let adopt events ~len =
    check_words ~fn:"Cache.Words.adopt" ~events ~pos:0 ~len;
    { events; len }

  let length w = w.len
  let clear w = w.len <- 0

  let add w ~owner ~write ~addr ~size =
    let word = pack ~owner ~write ~addr ~size in
    if w.len = Array.length w.events then invalid_arg "Cache.Words.add: full";
    Array.unsafe_set w.events w.len word;
    w.len <- w.len + 1

  let swap a b =
    if Array.length a.events <> Array.length b.events then
      invalid_arg "Cache.Words.swap: capacities differ";
    let events = a.events and len = a.len in
    a.events <- b.events;
    a.len <- b.len;
    b.events <- events;
    b.len <- len

  (* Element [i] of a range is [first + i * step], plus the write bit:
     the address field is the top one, so stepping it by [size] bytes
     leaves owner and size alone.  Packing the first and the last
     element checks every one in between, whose addresses lie between
     theirs. *)
  type elems = {
    dst : t;
    first : int;
    step : int;
    count : int;
    on_full : unit -> unit;
  }

  let elems dst ~owner ~addr ~size ~count ~on_full =
    if count < 0 then
      invalid_arg (Printf.sprintf "Cache.Words.elems: count %d" count);
    let first =
      if count = 0 then 0
      else begin
        if size > 0 && count - 1 > max_addr / size then
          invalid_arg
            (Printf.sprintf "Cache.Words.elems: %d elements of %d bytes" count
               size);
        ignore (pack ~owner ~write:false ~addr:(addr + ((count - 1) * size))
                  ~size : int);
        pack ~owner ~write:false ~addr ~size
      end
    in
    { dst; first; step = size lsl addr_shift; count; on_full }

  let add_elem e i ~write =
    if i < 0 || i >= e.count then
      invalid_arg
        (Printf.sprintf "Cache.Words.add_elem: index %d outside 0..%d" i
           (e.count - 1));
    let w = e.dst in
    if w.len = Array.length w.events then begin
      e.on_full ();
      if w.len = Array.length w.events then
        invalid_arg "Cache.Words.add_elem: full"
    end;
    Array.unsafe_set w.events w.len (e.first + (i * e.step) + Bool.to_int write);
    w.len <- w.len + 1

  let blit w dst = Array.blit w.events 0 dst 0 w.len
  let unsafe_events w = w.events
end

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

   One loop serves every batch entry point.  An event's time is the
   implicit [now0 + (i - pos)] or the timed walk's [times.(i)], so every
   shard sees every event ordinal.  A miss stores it in [t.now] before
   the victim's [spill] and the [fill], so that traffic carries the time
   of the event that caused it ([Hierarchy] stamps its queues with
   [now]); nothing else reads [now] mid-walk, and keeping it per event
   measurably slowed the untimed walk.  Every word is valid — checked
   by the [int array] entries, or by construction in a [Words.t] — so
   unsafe indexing is safe.  The LRU clock lives in a local and is
   stored once per batch (no callback reads it), and the statistics are
   bumped in place in [Stats]' flat counter array: one capacity check
   per event, a call only for an owner the record has not seen.  The
   way scan exits on the first tag match and the victim scan runs only
   on a miss.  Residency work runs only at
   phase transitions — a fill, a valid victim's eviction, the first
   dirtying write on a clean line — never on a hit that changes no
   phase.  Decisions and phases are identical to [touch]'s; the victim's
   [spill] fires before the missing line's [fill]. *)

let check_shards ~shards ~shard =
  if shards <= 0 || shards land (shards - 1) <> 0 then
    invalid_arg
      (Printf.sprintf
         "Cache.check_shards: shards must be a positive power of two (got %d)"
         shards);
  if shard < 0 || shard >= shards then
    invalid_arg
      (Printf.sprintf "Cache.check_shards: shard %d out of range (0..%d)" shard
         (shards - 1))

let effective_shards t ~shards =
  check_shards ~shards ~shard:0;
  min shards t.config.Config.sets

let[@inline] event_time times ~now0 ~pos i =
  match times with
  | Some times -> Array.unsafe_get times i
  | None -> now0 + (i - pos)

(* Slots past [Stats.reserve]'s bound are never indexed: the walk checks
   each event's owner slot against the array it then bumps. *)
let[@inline] bump counts i =
  Array.unsafe_set counts i (Array.unsafe_get counts i + 1)

let walk t ~events ~times ~pos ~len ~mask ~shard ~fill ~spill =
  let shift = t.line_shift in
  let set_mask = t.set_mask in
  let ca = t.config.Config.associativity in
  let tags = t.tags and owners = t.owners and dirty = t.dirty
  and stamps = t.stamps and res = t.res and res_start = t.res_start in
  let stats = t.stats and stride = Stats.stride in
  let counts = ref (Stats.counts stats) in
  let clock = ref t.clock in
  let now0 = t.now in
  for i = pos to pos + len - 1 do
    let w = Array.unsafe_get events i in
    let owner = event_owner w in
    let write = event_write w in
    let addr = event_addr w in
    let slot = owner * stride in
    if slot >= Array.length !counts then counts := Stats.reserve stats ~owner;
    let counts = !counts in
    let first = addr lsr shift in
    let last = (addr + event_size w - 1) lsr shift in
    for line = first to last do
      if line land mask = shard then begin
        let base = (line land set_mask) * ca in
        let limit = base + ca in
        incr clock;
        bump counts (slot + Bool.to_int write);
        let w = ref base in
        while !w < limit && Array.unsafe_get tags !w <> line do
          incr w
        done;
        if !w < limit then begin
          let w = !w in
          bump counts (slot + 2);
          Array.unsafe_set stamps w !clock;
          if write then begin
            (match res with
            | Some r when not (Array.unsafe_get dirty w) ->
                (* first dirtying write: the clean phase ends here *)
                let now = event_time times ~now0 ~pos i in
                Residency.record_interval r ~owner:(Array.unsafe_get owners w)
                  ~dirty:false ~t0:(Array.unsafe_get res_start w) ~t1:now;
                Array.unsafe_set res_start w now
            | _ -> ());
            Array.unsafe_set dirty w true
          end
        end
        else begin
          t.now <- event_time times ~now0 ~pos i;
          bump counts (slot + 3);
          let victim = ref base and victim_stamp = ref max_int in
          for w = base to limit - 1 do
            if Array.unsafe_get stamps w < !victim_stamp then begin
              victim_stamp := Array.unsafe_get stamps w;
              victim := w
            end
          done;
          let w = !victim in
          let vline = Array.unsafe_get tags w in
          if vline >= 0 then begin
            let vowner = Array.unsafe_get owners w in
            let vdirty = Array.unsafe_get dirty w in
            if vdirty then begin
              (* checked: a resident line's owner has a slot, since only
                 this walk and [touch] fill lines and both reserve it *)
              let c = (vowner * stride) + 4 in
              counts.(c) <- counts.(c) + 1;
              spill ~owner:vowner ~line:vline
            end;
            match res with
            | Some r ->
                Residency.record_interval r ~owner:vowner ~dirty:vdirty
                  ~t0:(Array.unsafe_get res_start w) ~t1:t.now;
                Residency.record_eviction r ~owner:vowner
            | None -> ()
          end;
          Array.unsafe_set tags w line;
          Array.unsafe_set owners w owner;
          Array.unsafe_set dirty w write;
          Array.unsafe_set stamps w !clock;
          (match res with
          | Some r ->
              Array.unsafe_set res_start w t.now;
              Residency.record_fill r ~owner
          | None -> ());
          fill ~owner ~line
        end
      end
    done
  done;
  t.clock <- !clock

(* The set-sharded walk of a checked range: the shared tail of
   [access_batch] and [access_words]. *)
let walk_shard t ~events ~pos ~len ~shards ~shard ~fill ~spill =
  let eff = min shards t.config.Config.sets in
  let now0 = t.now in
  (* With fewer usable shards than requested (tiny cache), shards
     [eff..shards-1] own no sets of this cache: lines are partitioned by
     [line land (eff - 1)], which only shards [0..eff-1] can match. *)
  if shard < eff then
    walk t ~events ~times:None ~pos ~len ~mask:(eff - 1) ~shard ~fill ~spill;
  t.now <- now0 + len

let access_batch t ~events ~pos ~len ~shards ~shard ~fill ~spill =
  check_shards ~shards ~shard;
  validate_batch ~events ~pos ~len;
  walk_shard t ~events ~pos ~len ~shards ~shard ~fill ~spill

let access_words t (w : Words.t) ~shards ~shard ~fill ~spill =
  check_shards ~shards ~shard;
  walk_shard t ~events:w.events ~pos:0 ~len:w.len ~shards ~shard ~fill ~spill

(* A deeper hierarchy level's input events are fills and spills, timed by
   the *originating* program-event ordinals, not this cache's own event
   count, so [Hierarchy] supplies them as a [times] column.  Like the
   events, it is checked before any state changes: a stamp below the one
   before it (the cache's clock, for the first) would close a phase with
   [t1 < t0] mid-walk.  The final [now] is the last event's time. *)
let walk_timed t ~events ~times ~pos ~len ~fill ~spill =
  if pos + len > Array.length times then
    invalid_arg
      (Printf.sprintf "Cache: bad times range pos=%d len=%d (times %d)" pos len
         (Array.length times));
  for i = pos to pos + len - 1 do
    let prev = if i > pos then times.(i - 1) else t.now in
    if times.(i) < prev then
      invalid_arg
        (Printf.sprintf
           "Cache.access_batch_timed: stamp %d at index %d is below %d" times.(i)
           i prev)
  done;
  walk t ~events ~times:(Some times) ~pos ~len ~mask:0 ~shard:0 ~fill ~spill;
  if len > 0 then t.now <- times.(pos + len - 1)

let access_batch_timed t ~events ~times ~pos ~len ~fill ~spill =
  validate_batch ~events ~pos ~len;
  walk_timed t ~events ~times ~pos ~len ~fill ~spill

let access_words_timed t (w : Words.t) ~times ~fill ~spill =
  walk_timed t ~events:w.events ~times ~pos:0 ~len:w.len ~fill ~spill

(* End-of-run eviction of everything resident; every dirty line's
   write-back is also handed to [spill] (slot order, i.e. set-major) so a
   next cache level can absorb it.  With residency attached, every
   surviving line's open phase is closed at the current event clock —
   the caller sets [now] to the run horizon first ([set_now]) so
   end-of-run exposure is counted up to the horizon and no further. *)
let flush_feed t ~spill =
  let counts = Stats.counts t.stats in
  Array.iteri
    (fun w tag ->
      if tag >= 0 then begin
        if t.dirty.(w) then begin
          let c = (t.owners.(w) * Stats.stride) + 4 in
          counts.(c) <- counts.(c) + 1;
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

let flush t = flush_feed t ~spill:nofeed

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
