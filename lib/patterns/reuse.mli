(** Data-reuse access-pattern model (paper §III-C, Eq. 8–15).

    Estimates how many cache blocks of a target structure [A] survive in an
    LRU cache while interfering structures [B] are accessed in between, and
    hence how many main-memory accesses each {e reuse} of [A] costs.

    Block placement is a Bernoulli process over the [NA] cache sets
    (Eq. 8; the printed equation omits the binomial coefficient, which we
    restore — the text specifies a Bernoulli trial and the distribution
    does not normalize without it), saturated at the associativity [CA].
    Two interference scenarios are modeled (paper's discussion around
    Eq. 10–12):

    - [`Lru_protected] — [A] was just accessed, so LRU evicts non-[A]
      blocks first (Eq. 11): [A] keeps [x] blocks per set if [x+y <= CA],
      else [CA - y].
    - [`Concurrent] — [A] and [B] were loaded concurrently; evictions hit
      any of the [I] resident blocks uniformly (Eq. 10 + 12, hypergeometric
      eviction with [I = E(X_{A+B})]).

    All quantities are per cache set; totals multiply by [NA] (Eq. 15 and
    the closing miss formula [F_A - NA * E(R_A)]). *)

type scenario = [ `Lru_protected | `Concurrent ]

type allocation = [ `Bernoulli | `Uniform ]
(** How a structure's blocks map to cache sets.  [`Bernoulli] is the
    paper's Eq. 8 (independent uniform placement of each block).
    [`Uniform] models a {e contiguous} structure, whose consecutive line
    addresses stripe evenly across the sets — the per-set count is then
    [floor(F/NA)] or [ceil(F/NA)] rather than binomial.  Contiguous arrays
    are the common case in the six kernels, and the Bernoulli variance
    otherwise manufactures phantom conflict misses for working sets that
    actually fit (see [dvf ablation]); [`Uniform] is therefore the
    default throughout. *)

val occupancy_dist :
  ?alloc:allocation -> cache:Cachesim.Config.t -> blocks:int -> unit ->
  Dvf_util.Dist.t
(** Eq. 8: distribution of the number of blocks a structure of [blocks]
    cache blocks leaves in one set when it has the cache to itself,
    saturated at [CA]. *)

val expected_occupancy :
  ?alloc:allocation -> cache:Cachesim.Config.t -> blocks:int -> unit -> float
(** Eq. 9: expectation of {!occupancy_dist}. *)

val survivor_dist :
  ?alloc:allocation -> cache:Cachesim.Config.t -> fa:int -> fb:int ->
  scenario:scenario -> unit -> Dvf_util.Dist.t
(** Eq. 13–14: distribution of [R_A], the blocks of [A] (of [fa] total
    blocks) still in a set after the interfering structure(s) [B] (of [fb]
    blocks) have been accessed. *)

val expected_survivors :
  ?alloc:allocation -> cache:Cachesim.Config.t -> fa:int -> fb:int ->
  scenario:scenario -> unit -> float
(** Eq. 15: [E(R_A)]. *)

val misses_per_reuse :
  ?alloc:allocation -> cache:Cachesim.Config.t -> fa:int -> fb:int ->
  scenario:scenario -> unit -> float
(** [max 0 (F_A - NA * E(R_A))], capped at [F_A]: main-memory accesses
    needed to re-reference all of [A] once after the interference. *)

val blocks_of_bytes : cache:Cachesim.Config.t -> int -> int
(** [ceil (bytes / CL)] — helper to express structure sizes in blocks. *)
