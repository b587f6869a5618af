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
    flushes close the open phase into the accumulator.  {!access_batch}
    and {!access_batch_timed} run one walk either way.  During its
    [fill] and [spill] callbacks {!now} is the time of the event that
    caused the traffic, and it does residency work only at those phase
    transitions, never on a hit that changes no phase. *)

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

(** {2 Packed events}

    The hot path for replaying captured traces ({!Memtrace.Tape}): an
    event is one non-negative immediate [int] built by {!pack}, a chunk
    of them one unboxed [int] array that is driven through the simulator
    with one call.  Only this module knows the word's layout. *)

val max_addr : int
(** [2^39 - 1]: every byte of a packed event lies in [0 .. max_addr]. *)

val max_owner : int
(** [511]: the largest owner id a packed event carries. *)

val max_size : int
(** [8191]: the largest size in bytes a packed event carries. *)

val pack : owner:int -> write:bool -> addr:int -> size:int -> int
(** One reference as one word.  Raises [Invalid_argument] when [size] is
    outside [1 .. max_size], [owner] outside [0 .. max_owner], or a byte
    of [addr .. addr + size - 1] outside [0 .. max_addr]. *)

val event_addr : int -> int
val event_owner : int -> int
val event_size : int -> int
val event_write : int -> bool
(** The fields of a {!pack}ed word. *)

val validate_batch : events:int array -> pos:int -> len:int -> unit
(** The batch check every entry that takes a caller's [int array] runs
    before it changes any state: raises [Invalid_argument] on a range
    outside [events] or on a word no {!pack} call returns. *)

(** {2 Validated words}

    Where a word is checked follows from where it came from.  A
    {!Words.t} is a buffer whose live words are valid by construction:
    its only writes are {!Words.add}, which stores what {!pack} returns,
    {!Words.adopt}, which runs the {!validate_batch} check on the array
    it takes, and {!Words.add_elem}, which writes an element of a
    {!Words.elems} range, whose first and last words {!pack} checked
    when the range was made ({!Words.swap} only moves valid words
    between buffers).  So its walks ({!access_words},
    {!access_words_timed}, {!Sweep.access_words},
    {!Hierarchy.access_words}) skip that scan: a tape's chunks and a
    hierarchy's funnel are [Words.t], and each word is checked once, as
    it enters one, however many caches and shards walk it afterwards.
    The entries that take an [int array] ({!access_batch},
    {!access_batch_timed}) check it first and then run the same walk. *)

module Words : sig
  type t

  val create : int -> t
  (** An empty buffer of the given capacity.  Raises [Invalid_argument]
      unless the capacity is positive. *)

  val adopt : int array -> len:int -> t
  (** The array as a buffer of capacity [Array.length] holding its first
      [len] words, after checking them as {!validate_batch} does (which
      raises [Invalid_argument] naming the first bad index).  The array
      becomes the buffer's storage: the caller must not touch it again. *)

  val length : t -> int

  val add : t -> owner:int -> write:bool -> addr:int -> size:int -> unit
  (** Append [pack ~owner ~write ~addr ~size].  Raises [Invalid_argument]
      when {!pack} does or the buffer is full, leaving it unchanged. *)

  val clear : t -> unit
  (** Empty the buffer, keeping its storage. *)

  val swap : t -> t -> unit
  (** Exchange the storage and live words of two buffers of the same
      capacity.  Raises [Invalid_argument] when the capacities differ. *)

  type elems
  (** A checked element range: the words of [count] consecutive
      elements of [size] bytes from [addr] on, all of one owner, each a
      read or a write, appended to one buffer.  Element [i]'s word is
      computed, not packed: the range's first word plus [i] steps of
      [size] bytes. *)

  val elems :
    t -> owner:int -> addr:int -> size:int -> count:int ->
    on_full:(unit -> unit) -> elems
  (** The range's elements, appended to the buffer.  Its first and last
      elements are {!pack}ed here, which checks every element in between;
      raises [Invalid_argument] when {!pack} rejects either, or on a
      negative [count].  An empty range ([count = 0]) checks nothing and
      takes no element.  [on_full] is called when an element finds the
      buffer full, to make room: a tape retires its head chunk
      ({!Memtrace.Tape.elems}). *)

  val add_elem : elems -> int -> write:bool -> unit
  (** Append element [i]'s word, with the write flag set for a write.
      Raises [Invalid_argument], leaving the buffer unchanged, when [i] is
      outside [0 .. count - 1] or the buffer is still full after
      [on_full]. *)

  val blit : t -> int array -> unit
  (** Copy the live words into [dst.(0 .. length - 1)]. *)

  val unsafe_events : t -> int array
  (** The storage itself, live words at [0 .. length - 1].  For the walks
      of this library ({!Sweep}), which only read it: a write through it
      voids the guarantee every walk of the buffer relies on. *)
end

(** {2 The packed walk}

    Each set's LRU state is independent of every other set's, so a batch
    can be partitioned by set index with zero locking: a line belongs to
    shard [line land (eff - 1)] where [eff = min shards sets] (both
    powers of two, so the shard bits are the low bits of the set index
    and no set is split between shards).  Running every shard in
    [0 .. shards-1] over the same batch — in any order, on any domains —
    makes exactly the serial per-set decisions, so merging the shard
    caches' statistics reproduces the serial totals bit for bit. *)

val check_shards : shards:int -> shard:int -> unit
(** The one validity check for a shard selector, shared by every
    set-sharded walk ({!access_batch}, {!Hierarchy.access_batch} and the
    tape replays): raises [Invalid_argument] unless [shards] is a
    positive power of two and [0 <= shard < shards].  Allocates nothing
    when the arguments are valid. *)

val effective_shards : t -> shards:int -> int
(** [min shards sets]: the number of shards that actually own sets of
    this cache.  Shards [>= effective_shards] are no-ops for it.  Raises
    [Invalid_argument] if [shards] is not a positive power of two. *)

val nofeed : owner:int -> line:int -> unit
(** The feed callback that ignores its traffic: pass it as [fill] and
    [spill] when no next cache level listens. *)

val access_batch :
  t ->
  events:int array ->
  pos:int ->
  len:int ->
  shards:int ->
  shard:int ->
  fill:(owner:int -> line:int -> unit) ->
  spill:(owner:int -> line:int -> unit) ->
  unit
(** Simulate the packed events [events.(pos .. pos+len-1)] as if each
    were passed to {!access} in order,
    touching only the lines owned by [shard] of [shards] —
    [~shards:1 ~shard:0] is the full walk.  Same line splitting, same
    statistics, one bounds check and one call for the whole block.

    The walk also reports the traffic a next cache level would see:
    [fill ~owner ~line] for every line miss (the demand fetch) and
    [spill ~owner ~line] for every dirty eviction (the write-back), with
    [line] the line {e number}; a victim's spill is reported before the
    missing line's fill.  Pass {!nofeed} for both when nothing listens.

    Raises [Invalid_argument] on a range outside [events], an invalid
    event word, a [shards] that is not a positive power of two, or
    [shard] outside [0 .. shards-1]; a rejected batch leaves the cache
    untouched. *)

val access_words :
  t ->
  Words.t ->
  shards:int ->
  shard:int ->
  fill:(owner:int -> line:int -> unit) ->
  spill:(owner:int -> line:int -> unit) ->
  unit
(** {!access_batch} over every live word of the buffer, with no word
    check: the words were checked when they entered it.  Raises
    [Invalid_argument] only on a bad shard selector. *)

(** {2 Explicitly timed walk}

    A deeper hierarchy level's input events (fills and spills) carry the
    {e originating} program-event times, not this cache's own traffic
    count, so the caller supplies a parallel [times] array
    (non-decreasing event ordinals) instead of the implicit clock.  Used
    by {!Hierarchy} in timed mode; after the walk [now] is the last
    event's time. *)

val access_batch_timed :
  t ->
  events:int array ->
  times:int array ->
  pos:int ->
  len:int ->
  fill:(owner:int -> line:int -> unit) ->
  spill:(owner:int -> line:int -> unit) ->
  unit
(** Unsharded {!access_batch} with the clock set to [times.(i)] before
    event [i].  Raises [Invalid_argument] on a bad range in either array,
    an invalid event word, or a stamp in [times.(pos .. pos+len-1)]
    below the one before it ({!now}, for the first); a rejected batch
    leaves the cache untouched. *)

val access_words_timed :
  t ->
  Words.t ->
  times:int array ->
  fill:(owner:int -> line:int -> unit) ->
  spill:(owner:int -> line:int -> unit) ->
  unit
(** {!access_batch_timed} over every live word of the buffer, with no
    word check; the [times] column is still checked. *)

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
