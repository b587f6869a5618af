(** Capture-once / replay-many trace tapes.

    The paper's verification methodology collects one memory trace per
    application and feeds it to the cache simulator at many
    configurations (§IV, Fig. 4/6).  A [Tape.t] is that trace: a
    compact, append-only buffer — per event one {!Cachesim.Cache.pack}
    word holding address, owner, size and write flag, stored in chunked
    unboxed [int] arrays ({!bytes_per_event} = 8 on 64-bit) — captured
    once, by instrumented kernels writing straight into it
    (see {!Tracked}), and then replayed into any number of caches
    without re-executing the workload kernel.

    Chunks are allocated at a fixed capacity (default 65536 events),
    large enough to live on the major heap, so capture is O(1) amortized
    per event and stays off the minor collector.  A chunk is just its
    array and a length, whether it was captured or loaded by
    {!Tape_io}.  Replay streams whole chunks through
    {!Cachesim.Cache.access_words}, driving several caches from a single
    chunk walk so each chunk is read once while it is hot.

    Invariant: every word of a tape is a valid packed event.  A chunk is
    a {!Cachesim.Cache.Words.t}; {!append} writes it through
    {!Cachesim.Cache.pack}, an {!elems} range writes words whose range
    was checked when it was made, and {!append_chunk} checks what it
    adopts, so a word is checked once, as it enters the tape, and the
    replays walk chunks with no word check however many caches and
    shards they feed.

    Tapes are single-domain values: capture on one domain, then hand the
    (immutable-from-then-on) tape to replay jobs freely — concurrent
    replays of one tape are safe as long as nobody appends. *)

type t

val create : ?chunk_events:int -> unit -> t
(** [chunk_events] is the per-chunk capacity in events (default 65536).
    Raises [Invalid_argument] when not positive. *)

(** {2 Capture} *)

val append : t -> owner:int -> write:bool -> addr:int -> size:int -> unit
(** Record one reference: the capture entry point of references that
    are not elements of a tracked array (Aspen replays, service graphs;
    {!Tracked} writes through {!elems}).  The event is validated first — raising
    [Invalid_argument] on a negative address or on any event
    {!Cachesim.Cache.pack} rejects (an owner, size or address outside
    the packed word's ranges) — so a rejected event leaves the tape
    unchanged.  It is then stored, one word, straight into the head
    chunk. *)

val elems :
  t -> owner:int -> addr:int -> size:int -> count:int ->
  Cachesim.Cache.Words.elems
(** The capture entry of a tracked array ({!Tracked}): the checked range
    of [count] elements of [size] bytes from [addr] on, appended to this
    tape by {!Cachesim.Cache.Words.add_elem}.  Its first and last
    elements are checked here, raising [Invalid_argument] as {!append}
    would on either; element [i] then costs one index check and one
    store.  A full head chunk is retired when an element needs room, so
    ranges and {!append} interleave in one event order. *)

val append_chunk : t -> events:int array -> len:int -> unit
(** Adopt one already-packed chunk — the {!Tape_io} load path.
    [events] must be exactly [chunk_events t] long; its first [len]
    words are the chunk's events and it becomes the tape's own storage
    (the caller must not touch it again).  A partial chunk
    ([len < chunk_events t]) becomes the appendable head.  Raises
    [Invalid_argument] on an array of the wrong size, a length outside
    [0 .. chunk_events t], a word no {!Cachesim.Cache.pack} call returns
    ({!Cachesim.Cache.Words.adopt}), or a tape that already ends in a
    partial chunk; the tape is unchanged then. *)

(** {2 Views and replay}

    A {!view} is one shard's walk of the tape: every chunk in capture
    order, each consumer touched only on the lines owned by the shard.
    The tape must not be appended to while views are alive (the usual
    replay contract). *)

type view

val view : t -> shards:int -> shard:int -> view
(** Shard [shard] of [shards].  Replaying every shard's view — in any
    order, or concurrently over per-consumer replicas whose statistics
    are merged afterwards — is bit-identical to {!replay_fused}: each
    consumer clamps [shards] to its own set count, so heterogeneous
    geometries neither drop nor duplicate lines.  Raises
    [Invalid_argument] unless [shards] is a positive power of two and
    [0 <= shard < shards]. *)

val replay_view : view -> Cachesim.Cache.t array -> unit
(** Walk the view's chunks into [caches] via
    {!Cachesim.Cache.access_words}, restricted to the view's shard.
    {!replay_fused} is built on it; otherwise kept for perfbench. *)

val replay_view_hierarchies : view -> Cachesim.Hierarchy.t array -> unit
(** {!replay_view} over hierarchies ({!Cachesim.Hierarchy.access_words}). *)

val replay_view_sweep : view -> Cachesim.Sweep.t -> unit
(** {!replay_view} into one all-geometry walker
    ({!Cachesim.Sweep.access_words}). *)

val replay_fused : t -> Cachesim.Cache.t array -> unit
(** One pass over the tape driving every cache, each chunk replayed into
    each cache before moving on.  Statistics afterwards are
    bit-identical to having traced the workload directly into each
    cache. *)

val partition : t -> Cachesim.Cache.t array -> shards:int -> view array
(** [view] of every shard; the caches are unused.  Kept for perfbench. *)

val replay_fused_sharded :
  t -> Cachesim.Cache.t array -> shards:int -> shard:int -> unit
(** [replay_view (view t ~shards ~shard)].  Kept for perfbench. *)

val view_chunks : view -> int
(** Chunks this view walks: every chunk of the tape.  Kept for
    perfbench. *)

val view_chunks_skipped : view -> int
(** Always 0: no chunk is ever skipped.  Kept for perfbench. *)

(** {2 Inspection} *)

val length : t -> int
(** Events captured so far. *)

val chunk_events : t -> int
(** Per-chunk capacity this tape was created with. *)

val chunk_count : t -> int
(** Non-empty chunks currently held. *)

val bytes_per_event : int
(** Storage cost of one event: one machine word. *)

val allocated_bytes : t -> int
(** Total bytes of chunk storage allocated (counts the partial head
    chunk at full capacity — [allocated_bytes t / max 1 (length t)]
    is the real amortized footprint per event). *)

val fold_chunks :
  t ->
  init:'a ->
  f:('a -> events:int array -> len:int -> 'a) ->
  'a
(** Fold over the chunks' words in capture order, without decoding —
    indices [0 .. len-1] of [events] are live.  [events] is a copy (one
    array, refilled for each chunk), so no caller can change a word the
    replays trust; read it before [f] returns.  {!iter} and
    {!Tape_io.save} are built on this fold; replays walk views
    instead. *)

val materialize : t -> unit
(** A no-op: every chunk is already decoded.  Kept for perfbench. *)

val iter : t -> (Event.t -> unit) -> unit
(** Decode and visit every event in capture order. *)

val to_list : t -> Event.t list
(** Decoded events in capture order — tests and small tapes only. *)
