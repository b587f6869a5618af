(** Set-associative LRU cache simulator.

    This is the reproduction's substitute for the authors' "configurable
    cache simulator" (paper §IV): it consumes a per-structure address
    stream (from {!Memtrace}) and reports LLC misses and writebacks per
    data structure, which together define the measured number of main
    memory accesses the analytical models are verified against (Fig. 4).

    The replacement policy is strict LRU within each set, matching the
    paper ("the cache simulation is based on the popular LRU algorithm and
    can report the number of cache misses and writebacks").  Writes
    allocate (write-allocate, write-back). *)

type t

val create : Config.t -> t

val config : t -> Config.t
val stats : t -> Stats.t

(** {2 Logical event clock and residency tracking}

    The cache keeps a logical clock [now]: the ordinal of the reference
    event being processed (batch walks advance it by the batch length,
    {!access}/{!touch_line} by one per call).  Attaching a
    {!Residency.t} turns on per-line phase accounting on that clock:
    every resident line carries the start time of its current clean or
    dirty phase, and fills, first dirtying writes, evictions and
    flushes close the open phase into the accumulator.  With no
    residency attached {!access_batch} runs its specialized kernel; with
    one attached it falls back to the generic per-line path (slower,
    still exact). *)

val now : t -> int

val set_now : t -> int -> unit
(** Pin the clock — the replay driver sets it to the tape length (the
    run horizon) before {!flush} so end-of-run phase closures count
    exposure up to the horizon and no further.  Raises
    [Invalid_argument] on a negative time. *)

val attach_residency : t -> Residency.t -> unit
(** Start recording residency phases into the accumulator.  Attach
    before the first access (phase-start stamps are reset to 0). *)

val residency : t -> Residency.t option

val access : t -> owner:int -> write:bool -> addr:int -> size:int -> unit
(** Simulate one program reference of [size] bytes at byte address [addr]
    by owner (data structure) [owner].  The reference is split at cache-line
    boundaries; each touched line is looked up, counted as hit or miss, and
    installed on miss (evicting the set's LRU line, recording a writeback if
    dirty).  Raises [Invalid_argument] if [size <= 0] or [addr < 0]. *)

val touch_line : t -> owner:int -> write:bool -> line_addr:int -> bool
(** Low-level single-line lookup used by the trace driver and tests;
    [line_addr] is a byte address (any byte within the line).  Returns
    [true] on hit. *)

(** {2 Packed bulk interface}

    The hot path for replaying captured traces ({!Memtrace.Tape}): events
    are stored columnar as two unboxed [int] arrays — byte address, and a
    metadata word from {!pack_access} — and a whole chunk is driven
    through the simulator with one call. *)

val max_size : int
(** Largest reference size {!pack_access} can encode: [2^30 - 1]. *)

val max_owner : int
(** Largest owner id {!pack_access} can encode. *)

val pack_access : owner:int -> write:bool -> size:int -> int
(** Pack one reference's metadata: bit 0 is the write flag, bits 1..30
    the size in bytes, the remaining high bits the owner id.  Raises
    [Invalid_argument] when [size] is outside [1 .. 2^30 - 1] or [owner]
    outside [0 .. max_int lsr 31] — far beyond anything the region
    registry hands out, but a loud failure beats silent truncation. *)

val unpack_access : int -> int * bool * int
(** [(owner, write, size)] of a word built by {!pack_access}. *)

(** {2 The packed walk}

    Each set's LRU state is independent of every other set's, so a batch
    can be partitioned by set index with zero locking: a line belongs to
    shard [line land (eff - 1)] where [eff = min shards sets] (both
    powers of two, so the shard bits are the low bits of the set index
    and no set is split between shards).  Running every shard in
    [0 .. shards-1] over the same batch — in any order, on any domains —
    makes exactly the serial per-set decisions, so merging the shard
    caches' statistics reproduces the serial totals bit for bit. *)

val effective_shards : t -> shards:int -> int
(** [min shards sets]: the number of shards that actually own sets of
    this cache.  Shards [>= effective_shards] are no-ops for it.  Raises
    [Invalid_argument] if [shards] is not a positive power of two. *)

val nofeed : owner:int -> line:int -> unit
(** The feed callback that ignores its traffic: pass it as [fill] and
    [spill] when no next cache level listens. *)

val access_batch :
  t ->
  addrs:int array ->
  metas:int array ->
  pos:int ->
  len:int ->
  shards:int ->
  shard:int ->
  fill:(owner:int -> line:int -> unit) ->
  spill:(owner:int -> line:int -> unit) ->
  unit
(** Simulate [addrs.(pos .. pos+len-1)] (with matching {!pack_access}
    metadata in [metas]) as if each were passed to {!access} in order,
    touching only the lines owned by [shard] of [shards] —
    [~shards:1 ~shard:0] is the full walk.  Same line splitting, same
    statistics, one bounds check and one call for the whole block.

    The walk also reports the traffic a next cache level would see:
    [fill ~owner ~line] for every line miss (the demand fetch) and
    [spill ~owner ~line] for every dirty eviction (the write-back), with
    [line] the line {e number}; a victim's spill is reported before the
    missing line's fill.  Pass {!nofeed} for both when nothing listens.

    Raises [Invalid_argument] on a range outside either array, a
    negative address, a [shards] that is not a positive power of two, or
    [shard] outside [0 .. shards-1]; a rejected batch leaves the cache
    untouched. *)

(** {2 Explicitly timed walk}

    A deeper hierarchy level's input events (fills and spills) carry the
    {e originating} program-event times, not this cache's own traffic
    count, so the caller supplies a parallel [times] array
    (non-decreasing event ordinals) instead of the implicit clock.  Used
    by {!Hierarchy} in timed mode; after the walk [now] is the last
    event's time. *)

val access_batch_timed :
  t ->
  addrs:int array ->
  metas:int array ->
  times:int array ->
  pos:int ->
  len:int ->
  fill:(owner:int -> line:int -> unit) ->
  spill:(owner:int -> line:int -> unit) ->
  unit
(** Unsharded {!access_batch} with the clock set to [times.(i)] before
    event [i].  Raises [Invalid_argument] on a bad range in any of the
    three arrays. *)

val set_of_addr : t -> int -> int
(** Set index of a byte address — the sharding key.  Raises
    [Invalid_argument] on a negative address. *)

val flush : t -> unit
(** Evict everything, recording writebacks for dirty lines.  Called at the
    end of a simulation when the experiment counts end-of-run evictions.
    With residency attached, every surviving line's open phase is closed
    at the current clock (set {!set_now} to the run horizon first). *)

val flush_feed : t -> spill:(owner:int -> line:int -> unit) -> unit
(** {!flush} that also hands every dirty line's write-back to [spill]
    (slot order), so a next cache level can absorb end-of-run traffic. *)

val invalidate : t -> unit
(** Drop all contents without recording writebacks (cold restart between
    phases). *)

val resident_lines : t -> owner:int -> int
(** Number of lines currently cached for [owner] — used by tests and by the
    reuse-model validation experiments. *)
