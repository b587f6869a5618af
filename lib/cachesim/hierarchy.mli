(** Multi-level write-back cache hierarchy.

    The paper restricts its analysis to a single (last-level) cache; a
    hierarchy generalizes that in the direction Thales' per-hardware-level
    vulnerability formulation points: level 1 sees the program's reference
    stream, and each deeper level sees only the traffic the level above
    emits — a read fill of the full line on every miss (write-allocate)
    and a write spill on every dirty eviction (write-back).  Inter-level
    traffic travels through the same packed-event funnel ({!Cache.pack}
    words in one {!Cache.Words.t}, so the inner levels walk it with no
    word check) the single-cache replay path uses, and every level keeps
    its own {!Stats}, so DVF can be evaluated per level.

    Invariant (after {!flush}): a level's accesses equal the previous
    level's misses plus its writebacks.

    A 1-level hierarchy behaves bit-identically to the single
    {!Cache.t} it wraps. *)

type t

val create : ?funnel_events:int -> Config.t list -> t
(** [create configs] builds a hierarchy with [List.nth configs 0] as L1.
    All levels must share one line size — fills and spills forward whole
    lines, and the set-sharded walk partitions every level by the same
    line-number bits.  [funnel_events] (default 4096) sizes the
    inter-level buffers.  Raises [Invalid_argument] on an empty list,
    mismatched line sizes, a line size above {!Cache.max_size} (a
    forwarded line must fit one packed event), or a non-positive
    [funnel_events]. *)

val depth : t -> int

val level_cache : t -> int -> Cache.t
(** The cache at 0-based level [i] (0 = L1).  Use it to read per-level
    {!Stats}.  Raises [Invalid_argument] out of range. *)

val configs : t -> Config.t list

val attach_residency : t -> Residency.t array -> unit
(** Attach one {!Residency.t} per level (array length must equal
    {!depth}) and switch the funnel to timed mode: every queued fill or
    spill is stamped with the emitting cache's event clock, and deeper
    levels replay their input through the explicitly timed walks — so a
    line's clean/dirty phases at every level are measured on the
    program's event axis.  Attach before the first access.  Raises
    [Invalid_argument] on a length mismatch. *)

val set_now : t -> int -> unit
(** Pin every level's event clock (see {!Cache.set_now}) — the replay
    driver sets the run horizon before {!flush}. *)

val max_shards : t -> int
(** Largest usable shard count: the minimum set count over all levels.
    {!access_batch} clamps its [shards] argument to this. *)

val access : t -> owner:int -> write:bool -> addr:int -> size:int -> unit
(** Single-reference entry point (mirrors {!Cache.access}).  Raises
    [Invalid_argument] on a reference {!Cache.pack} rejects. *)

val access_batch :
  t ->
  events:int array ->
  pos:int ->
  len:int ->
  shards:int ->
  shard:int ->
  unit
(** Packed-batch entry point (mirrors {!Cache.access_batch}; the full
    walk is [~shards:1 ~shard:0]).  Walks only the lines owned by
    [shard] of [shards] — the partition key is the line number, shared
    by every level, so per-set independence holds hierarchy-wide and
    running all shards over the same batch reproduces the serial
    statistics at every level bit for bit.
    [shards] is clamped to {!max_shards}; shards beyond the clamp are
    no-ops.  The filter applies at level 1 only: deeper levels see only
    fills/spills of already-filtered lines.  Raises [Invalid_argument],
    leaving the hierarchy untouched, on a range outside [events] or an
    invalid event word — on every shard, those past the clamp included —
    or on a bad shard selector ({!Cache.check_shards}). *)

val access_words : t -> Cache.Words.t -> shards:int -> shard:int -> unit
(** {!access_batch} over every live word of the buffer, with no word
    check at any level ({!Cache.access_words}): the tape replays' entry
    point. *)

val flush : t -> unit
(** Drain the hierarchy top-down: level [i]'s flush spills feed level
    [i+1] before level [i+1] flushes, so end-of-run dirty lines cascade
    like mid-run evictions.  After this the inter-level invariant above
    holds exactly. *)

val invalidate : t -> unit
(** Drop all contents at every level without recording writebacks. *)
