(** One walk for many cache geometries.

    A capacity sweep simulates one trace on caches that differ only in
    their set count: same line size, same associativity, power-of-two
    set counts.  Such caches obey LRU inclusion (Mattson et al. 1970;
    Hill & Smith, IEEE TC 1989): whatever a cache with [S] sets holds, the
    cache with [2S] sets holds too, and a line dirty in the smaller one is
    dirty in the larger one.  So one pass over the trace, with O(1) state
    per line, gives every geometry's statistics: a reference that hits in
    the smallest cache costs one table lookup, and each cache that misses
    costs one victim scan of its own set.

    The result per geometry is bit-identical, owner by owner, to a
    dedicated {!Cache.t} fed the same batches: reads, writes, hits,
    misses, and writebacks attributed to the owner that filled the
    line. *)

type t

val create : Config.t list -> t
(** A walker over every config of the list.  The configs must share
    [line] and [associativity]; their set counts may come in any order
    and may repeat.  Raises [Invalid_argument] on an empty list or on
    mixed line sizes or associativities. *)

val access_batch :
  t ->
  events:int array ->
  pos:int ->
  len:int ->
  shards:int ->
  shard:int ->
  unit
(** Walk the packed events [events.(pos .. pos+len-1)] into every
    geometry at once, as {!Cache.access_batch} would into each of them.  The batch is checked exactly as there
    ({!Cache.check_shards}, {!Cache.validate_batch}); a rejected batch
    leaves the walker untouched.

    A line belongs to shard [line land (eff - 1)] with
    [eff = min shards s] and [s] the smallest set count, so every set of
    every geometry lies in one shard.  Running every shard in
    [0 .. shards-1] on its own walker and summing the statistics gives
    the full walk's totals.  A walker serves one shard selector: a batch
    whose [(min shards s, shard)] differs from the first batch's raises
    [Invalid_argument].

    The per-line tables are indexed by line number (divided by [eff]) as
    long as those numbers stay below twice the line references walked so
    far, or below 65536.  A line number past that bound switches the
    walker to renumbering lines in first-touch order, so no table grows
    with the magnitude of the addresses. *)

val access_words : t -> Cache.Words.t -> shards:int -> shard:int -> unit
(** {!access_batch} over every live word of the buffer, with no word
    check (see {!Cache.Words}). *)

val flush : t -> unit
(** End of run: write back every dirty line of every geometry (counted
    for the owner that filled it) and empty every geometry. *)

val stats : t -> Stats.t list
(** Fresh statistics, one record per config in {!create}'s order,
    holding every reference walked and every writeback so far. *)

val renumbered : t -> bool
(** Whether the walker has switched to first-touch renumbering. *)
