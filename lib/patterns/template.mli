(** Template-based access-pattern model (paper §III-C, "Template-Based
    Access Pattern").

    The user supplies the access template — the ordered sequence of element
    references the pseudocode performs (see {!Template_lang} for the
    generator syntax that builds these sequences).  The model lowers
    elements to cache blocks and runs the paper's two-step algorithm:

    + a block referenced for the first time is a main-memory access;
    + a re-referenced block is a main-memory access iff the distance to its
      previous reference exceeds the maximum available cache capacity.

    "Distance" is the LRU stack distance (number of {e distinct} blocks
    referenced in between).  With [B] available blocks a re-reference
    misses iff its stack distance is at least [B], which is exactly "the
    block is not resident in a fully associative LRU cache of [B]
    blocks", so the model walks that cache: an intrusive recency list in
    two int arrays indexed by block id plus one state byte per block,
    O(1) per block reference.  The tables are sized by the input, not
    by the id values: a template whose block ids all fall in
    [0 .. n-1] ([n] block references) is walked straight from its
    element stream; any other template, and any explicit block trace,
    is first renumbered in first-touch order.  A [`Raw] distance variant
    (plain count of intervening references, the literal reading of the
    paper's "distance") is kept for [dvf ablation]. *)

type distance_kind = [ `Stack | `Raw ]

type t = {
  elem_size : int;       (** E, bytes *)
  refs : int array;      (** element indices in access order *)
  writes : bool array option;
      (** Per-reference store flags (same length as [refs]); [None] means
          all reads.  Stores dirty their block, and a dirty block's
          eviction is a writeback — counted as a main-memory access, like
          the cache simulator's misses + writebacks. *)
  cache_ratio : float;   (** share of the cache available, (0,1] *)
  distance : distance_kind;
}

val make :
  ?cache_ratio:float -> ?distance:distance_kind -> ?writes:bool array ->
  elem_size:int -> int array -> t
(** [make ~elem_size refs] with [cache_ratio] defaulting to 1.0 and
    [distance] to [`Stack].  Raises [Invalid_argument] on a non-positive
    element size, a negative index, an index above
    [max_int / elem_size - 1] (whose byte offset would overflow), a ratio
    outside (0,1], or a [writes] array whose length differs from [refs]. *)

val block_trace : line:int -> t -> int array * bool array
(** Element references lowered to cache-block ids with their store flags.
    An element spanning several blocks contributes each of its blocks in
    order. *)

val available_blocks : cache:Cachesim.Config.t -> t -> int
(** [floor (Cc * r / CL)], at least 1. *)

val main_memory_accesses : cache:Cachesim.Config.t -> t -> float
(** Misses plus writebacks for one execution of the template (dirty
    blocks still resident at the end count as written back, matching an
    end-of-run cache flush). *)

val misses_on_blocks : capacity:int -> distance:distance_kind -> int array -> int
(** The bare two-step algorithm (read-only trace) on an explicit block
    trace with a given block capacity; exposed for tests and for
    {!Compose}. *)

val accesses_on_blocks :
  capacity:int -> distance:distance_kind -> writes:bool array option ->
  int array -> int * int
(** [(misses, writebacks)] on an explicit block trace. *)

val pp : Format.formatter -> t -> unit
