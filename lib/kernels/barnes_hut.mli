(** Barnes–Hut N-body simulation (paper Table II / Algorithm 2).

    2-D particles in the unit square, organized in a quadtree; the force
    on each particle is computed by traversing the tree and cutting off
    recursion when a node is "distant enough" (opening angle criterion
    [size / distance < theta]).  The number of tree nodes touched per
    particle — the paper's parameter [k] — depends on the particle
    distribution and [theta] and is reported in the result, to be fed back
    into the random-access model exactly as the paper obtains [k] "by
    profiling application on any available hardware".

    Traced structures: "T" (tree nodes, 32-byte elements, random access)
    and "P" (particles, 32-byte elements, streamed once per force pass
    with a write of the accumulated force). *)

type params = {
  particles : int;
  theta : float;       (** opening angle, typically 0.3–1.0 *)
  seed : int;
  force_passes : int;  (** how many force-computation sweeps to run *)
}

val make_params : ?theta:float -> ?seed:int -> ?force_passes:int -> int -> params

val verification : params
(** Table V: 1000 particles. *)

val profiling : params
(** Table VI: 6000 particles, with [theta = 1.0] so the mean visit count
    lands near the paper's reported ~80 comparisons per body. *)

type result = {
  nodes : int;              (** quadtree nodes built *)
  avg_visits : float;       (** k: mean tree nodes touched per particle *)
  hot_nodes : int;
      (** nodes visited by at least half of all traversals — the root and
          upper tree levels, which every force computation re-touches and
          which therefore stay cached *)
  hot_visits : float;       (** mean visits per traversal landing on hot nodes *)
  forces : (float * float) array;  (** net force per particle *)
  flops : int;
}

val run : Memtrace.Region.t -> Memtrace.Tape.t -> params -> result
(** Run with tracing: every traced reference is appended to the tape. *)

val run_untraced : params -> result

val direct_forces : params -> (float * float) array
(** Exact O(n^2) pairwise forces, for accuracy testing. *)

val injection_steps : params -> int
(** Number of traversal boundaries a fault can land on
    ([particles * force_passes]); {!run_injected}'s [flip_at] ranges over
    [0 .. injection_steps] inclusive (the last value strikes after the
    final traversal, i.e. the written-back output). *)

val run_injected :
  params ->
  structure:[ `T | `P ] ->
  flip_at:int ->
  pick:(int -> int) ->
  flip:(float -> float) ->
  (float * float) array
(** Untraced force computation with one fault injected before traversal
    number [flip_at]: [pick len] chooses which of the structure's [len]
    injectable floats to corrupt and [flip] corrupts it.  [`T] exposes the
    live tree nodes' mass / center-of-mass / geometry fields, [`P] the
    particle positions, masses and force accumulators.  With [flip = Fun.id]
    the returned forces are bit-identical to [run_untraced]'s — the
    injector's clean reference. *)

val spec : ?result:result -> params -> Access_patterns.App_spec.t
(** Random-access model for T parameterized by the measured [nodes] and
    [avg_visits] (from [result], or from an untraced run when absent),
    plus a streaming model for P.  The measured hot set — upper-tree
    nodes every traversal revisits, which LRU keeps resident — is
    excluded from the random population ([N - hot_nodes] elements,
    [k - hot_visits] visits) and its cache occupancy shrinks the random
    part's cache share; the paper's uniform-visit assumption otherwise
    overstates NB misses by ~50 %. *)
