(** Capture-once / replay-many trace tapes.

    The paper's verification methodology collects one memory trace per
    application and feeds it to the cache simulator at many
    configurations (§IV, Fig. 4/6).  A [Tape.t] is that trace: a
    compact, append-only columnar buffer — per event one byte address
    and one {!Cachesim.Cache.pack_access} metadata word, stored in
    chunked unboxed [int] arrays ({!bytes_per_event} = 16 on 64-bit) —
    captured from a {!Recorder} once and then replayed into any number
    of caches without re-executing the workload kernel.

    Chunks are allocated at a fixed capacity (default 65536 events),
    large enough to live on the major heap, so capture is O(1) amortized
    per event and stays off the minor collector.  Replay streams whole
    chunks through {!Cachesim.Cache.access_batch}, driving several
    caches from a single chunk walk so a multi-geometry sweep reads each
    chunk once while it is hot.

    Every chunk carries a {e partition index}, maintained at capture
    time: a coverage bitmap over {!partition_buckets} buckets of the
    granule-line number ([addr lsr granule_shift]) plus the chunk's
    min/max granule line.  Every replay walks a per-shard chunk list
    built from it ({!partition}), skipping whole chunks that provably
    contain no line of the shard — bit-identical to the full scan,
    because a skipped chunk would not have changed the shard's sets.

    Chunks may be {e deferred}: {!Tape_io} v2 loads adopt chunks as
    (length, index, decode) triples over an mmap'd payload
    ({!append_deferred_chunk}) and the [int] arrays are only
    materialized when a walk first needs them — lock-free and
    idempotent, so concurrent shard domains may force the same chunk
    safely, and a chunk every shard skips is never decoded at all.

    Tapes are single-domain values: capture on one domain, then hand the
    (immutable-from-then-on) tape to replay jobs freely — concurrent
    replays of one tape are safe as long as nobody appends. *)

type t

val create : ?chunk_events:int -> unit -> t
(** [chunk_events] is the per-chunk capacity in events (default 65536).
    Raises [Invalid_argument] when not positive. *)

(** {2 Capture} *)

val append : t -> Event.t -> unit
(** Record one event.  Raises [Invalid_argument] on a negative address
    or on an owner/size outside the packed-word range (see
    {!Cachesim.Cache.pack_access}) — the same events a direct
    {!Cachesim.Cache.access} would reject. *)

val append_batch : t -> Event.t array -> int -> unit
(** [append_batch t events n] records [events.(0 .. n-1)] in order.
    This is the capture fast path: the whole batch is validated up
    front (so a rejected batch leaves the tape untouched) and events
    are then stored in runs split only at chunk boundaries, instead of
    re-checking the boundary and re-validating per event.  Raises
    [Invalid_argument] on a bad count, a negative address, or an
    owner/size outside the packed-word range. *)

val sink : t -> Recorder.sink
(** Per-event capture sink for {!Recorder.add_sink}. *)

val batch_sink : t -> Recorder.batch_sink
(** Chunk capture sink for {!Recorder.add_batch_sink} — the fast path
    when recording from a buffered recorder. *)

(** {2 Views and replay}

    Every replay walks a {!view}: one shard's list of chunks, selected
    up front by the partition index, in capture order.  {!partition}
    evaluates the per-chunk shard test once for every shard, so [N]
    shard domains each traverse only their slice instead of re-testing
    (or rescanning) the whole tape, and a chunk no shard selects is
    never materialized.  The tape must not be appended to while views
    are alive (the usual replay contract). *)

type view
(** One shard's slice of a tape: the chunks whose partition index
    intersects the shard's bucket mask, in capture order. *)

val partition : t -> Cachesim.Cache.t array -> shards:int -> view array
(** [partition t caches ~shards] builds one view per shard for a fused
    sharded replay over [caches]; {!replay_view} of view [s] is
    bit-identical to [replay_fused_sharded t caches ~shards ~shard:s].
    The views are keyed on the caches' geometry (line size, effective
    shard count) and on whether any has a residency accumulator (then
    every chunk is selected, since the logical clock must advance over
    every event): hand {!replay_view} replicas of the same
    configurations.  Raises [Invalid_argument] unless [shards] is a
    positive power of two. *)

val partition_hierarchies :
  t -> Cachesim.Hierarchy.t array -> shards:int -> view array
(** {!partition} keyed on hierarchies (L1 line size, hierarchy-wide
    effective shard count, residency at any level) for
    {!replay_view_hierarchies}. *)

val replay_view : view -> Cachesim.Cache.t array -> unit
(** Walk one view's chunks into [caches] via {!Cachesim.Cache.access_batch}
    restricted to the view's shard.  [caches] must be replicas of the
    configurations the view was partitioned for — the selector is
    recomputed and a mismatch raises [Invalid_argument] instead of
    silently dropping events. *)

val replay_view_hierarchies : view -> Cachesim.Hierarchy.t array -> unit
(** {!replay_view} over hierarchy replicas. *)

val replay_fused_sharded :
  ?skipped:int ref ->
  t -> Cachesim.Cache.t array -> shards:int -> shard:int -> unit
(** One shard's view built on the fly and replayed into [caches]: every
    cache touched only on the lines owned by [shard] of [shards] (each
    cache clamps [shards] to its own set count, so heterogeneous
    geometries neither drop nor duplicate lines).  Replaying every shard
    — in any order, or concurrently over per-shard cache replicas whose
    statistics are merged afterwards — is bit-identical to
    {!replay_fused}.  [skipped] is incremented once per chunk the
    partition index excluded.  Raises [Invalid_argument] unless [shards]
    is a positive power of two and [0 <= shard < shards]. *)

val replay_fused : t -> Cachesim.Cache.t array -> unit
(** [replay_fused_sharded ~shards:1 ~shard:0]: one pass over the tape
    driving every cache, each chunk replayed into each cache before
    moving on.  Statistics afterwards are bit-identical to having
    traced the workload directly into each cache. *)

val view_shard : view -> int
val view_shards : view -> int

val view_chunks : view -> int
(** Chunks this view walks. *)

val view_events : view -> int
(** Events in the view's chunks (an upper bound on the events the shard
    actually simulates — chunks are skipped whole, events within a
    selected chunk are still filtered per set). *)

val view_chunks_skipped : view -> int
(** Chunks the partition index excluded for this shard. *)

(** {2 Inspection} *)

val length : t -> int
(** Events captured so far. *)

val chunk_events : t -> int
(** Per-chunk capacity this tape was created with. *)

val chunk_count : t -> int
(** Non-empty chunks currently held. *)

val bytes_per_event : int
(** Storage cost of one event: two machine words. *)

val allocated_bytes : t -> int
(** Total bytes of chunk storage allocated (counts the partial head
    chunk at full capacity — [allocated_bytes t / max 1 (length t)]
    is the real amortized footprint per event). *)

val granule_shift : int
(** The partition index records granule lines: [addr lsr granule_shift]
    (8-byte granules — no cache configuration has a smaller line). *)

val partition_buckets : int
(** Buckets in a chunk's coverage bitmap: a granule line [g] sets bucket
    [g land (partition_buckets - 1)]. *)

val coverage_words : int
(** Words the coverage bitmap is stored in ({!partition_buckets} /
    32 bits each) — the shape {!chunk_infos} returns and
    {!append_deferred_chunk} expects. *)

type chunk_info = {
  ci_len : int;  (** events in the chunk *)
  ci_coverage : int array;  (** {!coverage_words} words, 32 live bits each *)
  ci_min_line : int;  (** smallest granule line touched ([max_int] if none) *)
  ci_max_line : int;  (** largest granule line touched ([-1] if none) *)
}

val chunk_infos : t -> chunk_info list
(** Per-chunk partition indexes in capture order, without materializing
    deferred chunks — what {!Tape_io} serializes and [dvf tape info]
    summarizes.  The coverage arrays are fresh copies. *)

val fold_chunks :
  t ->
  init:'a ->
  f:('a -> addrs:int array -> metas:int array -> len:int -> 'a) ->
  'a
(** Fold over the raw columnar chunks in capture order, without decoding
    or copying — indices [0 .. len-1] of [addrs]/[metas] are live.  The
    arrays are the tape's own storage: callers must not mutate them.
    {!iter} and {!Tape_io.save} are built on this fold; replays walk
    views instead.  Deferred chunks are materialized as the fold reaches
    them. *)

val materialize : t -> unit
(** Force every deferred chunk's decode now.  Idempotent; useful to
    front-load decode cost (benchmark baselines) or to release the
    mapped file the decoders read from. *)

val append_deferred_chunk :
  t ->
  len:int ->
  coverage:int array ->
  min_line:int ->
  max_line:int ->
  decode:(unit -> int array * int array) ->
  unit
(** Adopt a chunk lazily — the {!Tape_io} v2 mmap load path: the
    partition index comes from the file's chunk table and [decode]
    materializes the (exactly [chunk_events t]-long) addr/meta arrays
    from the mapped payload on first use.  [decode] must be pure and
    safe to call from any domain (it may be called more than once under
    a materialization race; one result wins).  A partial chunk
    ([len < chunk_events t]) is decoded eagerly and becomes the head.
    The tape must currently end on a chunk boundary (only full chunks
    appended before).  Raises [Invalid_argument] on a length outside
    [0 .. chunk_events t], a tape whose head is already partially
    filled, or a malformed index ([coverage] not {!coverage_words} words
    of 32 bits, or an invalid line range). *)

val iter : t -> (Event.t -> unit) -> unit
(** Decode and visit every event in capture order. *)

val to_list : t -> Event.t list
(** Decoded events in capture order — tests and small tapes only. *)
