(** Model verification (paper §IV-A, Fig. 4).

    Runs each workload's instrumented implementation (or synthetic replay
    for model-only workloads), feeds the trace to the LRU cache simulator,
    and compares the per-structure main-memory access counts (misses +
    writebacks) against the CGPMAC analytical estimate.  The paper reports
    estimation error within 15 % in all cases.

    Like the paper's methodology (one Pin trace per application, reused
    for every cache configuration), each workload's trace is captured
    {e once} into a {!Memtrace.Tape} and replayed into every verification
    cache, instead of re-executing the kernel per geometry.  Every replay
    goes through one engine, one capture per call: set-sharded walks of
    per-shard tape views on private cache replicas, merged in shard
    order, so rows are bit-identical at any job count.  A sweep replays
    each capture as soon as it exists, with no barrier between
    captures.  {!verify_instance}, which feeds a
    fresh capture event by event through {!Cachesim.Cache.access}, is
    the independent reference the tests compare the engine against. *)

type row = {
  workload : string;   (** registry name, e.g. "CG" *)
  cache : Cachesim.Config.t;
  structure : string;
  simulated : float;   (** misses + writebacks from the cache simulator *)
  modeled : float;     (** CGPMAC estimate *)
}

val error : row -> float
(** |modeled - simulated| / simulated. *)

val verify_instance : cache:Cachesim.Config.t -> Workload.instance -> row list
(** One workload instance against one cache configuration: re-execute
    the kernel into a fresh tape, then replay its decoded events
    ({!Memtrace.Tape.iter}) one {!Cachesim.Cache.access} at a time — no
    packed walk, no sharding.  The test oracle for the replay engine. *)

type capture = {
  instance : Workload.instance;
  registry : Memtrace.Region.t;  (** the address space the tape's events
                                     refer to *)
  tape : Memtrace.Tape.t;
}
(** One workload's recorded trace, ready to replay into any cache.  After
    {!capture} returns, the tape is never mutated again, so one capture
    may be replayed from several domains concurrently. *)

val store_key : Workload.instance -> Memtrace.Tape_store.key
(** The tape-store key for an instance: its registry name and size
    label, seed 0 (the workloads take no per-run seed). *)

val capture :
  ?telemetry:Dvf_util.Telemetry.t ->
  ?store:Memtrace.Tape_store.t ->
  Workload.instance -> capture
(** Execute the workload kernel once, its instrumented arrays appending
    every reference straight into a fresh tape.  Telemetry: span
    ["verify/<workload>/capture"], the ["tape/capture_events"] and
    ["tape/allocated_bytes"] counters, and the ["verify/capture_total"]
    accumulator — kernel execution time is now separable from simulation
    time, which the old ["verify/trace_total"] lumped together.

    With [store], the capture goes through
    {!Memtrace.Tape_store.find_or_capture} under {!store_key}: a warm
    store skips kernel execution and tracing entirely (the capture
    telemetry above stays silent — ["tape/capture_events"] does not
    advance — while the ["store/*"] counters do), a cold store captures
    as usual and persists the tape for the next process. *)

type replica_store
(** Flushed cache-hierarchy replicas kept for reuse, keyed by consumer
    geometry and by whether residency is attached.  A reused replica has
    its statistics, clock and residency reset, so it gives exactly the
    rows of a fresh one.  Safe to share between domains and between
    concurrent calls. *)

val replica_store : ?keep:int -> unit -> replica_store
(** An empty store that keeps at most [keep] spare replicas per key
    (default: unbounded).  Each call without [?replicas] uses a fresh
    unbounded store of its own, which then retains about one replica per
    concurrently running walk task until the call returns; a
    [run_all*] sweep shares one such store among all its captures.  A
    long-lived store (what [dvf serve] keeps, with [keep = 1]) retains
    one flushed replica per geometry between calls: about 2 MB for the
    large verification cache alone, about 19 MB for its 2-level
    hierarchy (524,288 L2 slots at 32 B each), about 23 MB for that
    hierarchy timed (8 B more per slot), and more than 128 MB for a
    3-level one (4,194,304 L3 slots: about 153 MB, 191 MB timed).  Every
    small verification geometry stays under 1 MB. *)

val capture_rows :
  ?telemetry:Dvf_util.Telemetry.t ->
  ?pool:Dvf_util.Parallel.Pool.t ->
  ?replicas:replica_store ->
  capture -> row list
(** One capture's Fig. 4 rows over both verification caches —
    bit-identical to the corresponding slice of {!run_all}, and what a
    [dvf serve] verify request runs against its warm capture.  Without
    [pool] every walk runs in the calling domain; with one, the walks
    and row builds are tasks on it, scheduled as each capture of
    {!run_all} is (the caller may itself be one of the pool's workers,
    as {!run_all}'s per-workload tasks are).  [replicas]
    (default: a fresh store for this call) supplies the cache replicas
    the walks reuse. *)

val shard_width : jobs:int -> Cachesim.Config.t list -> int
(** The replay engine's shard count for a [jobs]-wide pool: the largest
    power of two [<= jobs], clamped to the smallest set count among
    [configs] (a wider width would make shards that own no line of that
    cache).  Always a power of two. *)

val run_all :
  ?jobs:int ->
  ?telemetry:Dvf_util.Telemetry.t ->
  ?store:Memtrace.Tape_store.t ->
  ?workloads:Workload.t list -> unit -> row list
(** Fig. 4: every workload (Table V sizes) against both verification cache
    configurations.  [workloads] defaults to everything registered.
    [store] routes every capture through a persistent tape store (see
    {!capture}); rows are bit-identical with or without it.

    [jobs] (default [Domain.recommended_domain_count ()]) sizes the
    domain pool.  Each workload is one task, which captures its tape and
    at once replays it: every (cache x shard) walk of that capture, and
    then every cache's row build — including the CGPMAC model — is a
    task of a nested map on the same pool, so there is no barrier
    between captures and a domain that runs out of captures helps walk
    the others'.  The shard width is the largest power of two <= [jobs]
    / the number of caches (at least 1), clamped to the smallest cache's
    set count: [-j 2] walks each cache unsharded, [-j 8] in 4 shards.
    Each task owns its private mutable state, so the rows are identical
    to the serial run in value and order — at any job count, with or
    without telemetry.

    With an enabled [telemetry], captures report as described at
    {!capture}; rows record a ["verify/<workload>/<cache>"] span with a
    nested ["model"] span and the ["cache/accesses"] counter; the walk
    records ["tape/replay_events"] (events x caches), ["shard/tasks"],
    ["shard/walked_events"], the ["shard/count"]
    gauge and the ["verify/replay_total"] accumulator, which sums every
    capture's walk phase (phases of different captures may overlap, so
    it can exceed the wall clock); the sweep records
    ["verify/total"] wall-clock and, at the end, the throughput gauges
    ["tape/capture_events_per_sec"] (over capture time),
    ["tape/replay_events_per_sec"] and ["cache/accesses_per_sec"] (over
    that summed replay time: a rate per walk phase, not per second of
    the sweep), and ["tape/bytes_per_event"].  Counters
    other than the shard ones are identical at every job count; only
    the time fields differ. *)

(** {2 Per-level rows}

    A multi-level run reports raw traffic per hardware level instead of
    the modeled-vs-simulated pair: the analytical model targets a single
    (last-level) cache, while per-level misses and writebacks are the
    access counts a per-level vulnerability formulation (Thales)
    consumes. *)

type level_row = {
  l_workload : string;
  base_cache : Cachesim.Config.t;   (** the L1/base geometry *)
  level : int;                      (** 1-based *)
  level_cache : Cachesim.Config.t;  (** this level's geometry *)
  l_structure : string;
  accesses : float;                 (** line lookups this level served *)
  misses : float;
  l_writebacks : float;
}

val capture_level_rows :
  ?telemetry:Dvf_util.Telemetry.t ->
  ?pool:Dvf_util.Parallel.Pool.t ->
  ?replicas:replica_store ->
  levels:int -> capture -> level_row list
(** One capture's per-level rows over every verification base geometry
    (what a [dvf serve] levels request runs against its warm capture);
    [pool] and [replicas] as in {!capture_rows}.  Rows are bit-identical
    to the corresponding slice of {!run_all_levels}. *)

val run_all_levels :
  ?jobs:int ->
  ?telemetry:Dvf_util.Telemetry.t ->
  ?store:Memtrace.Tape_store.t ->
  ?workloads:Workload.t list ->
  levels:int -> unit -> level_row list
(** Every workload against both verification geometries extended to
    [levels]-deep hierarchies ({!Cachesim.Config.hierarchy_of}), on the
    engine and schedule of {!run_all}.  Rows are ordered workload-major,
    then base cache, then level, then structure (registration order).
    [levels = 1] reports exactly the single-cache traffic the classic
    rows simulate.  Raises [Invalid_argument] outside
    [1 <= levels <= 3].  Telemetry: per-level
    ["hierarchy/l<n>/accesses"|"misses"|"writebacks"] counters
    (deterministic at any [jobs]) and a ["hierarchy/levels"] gauge. *)

val to_level_table : level_row list -> Dvf_util.Table.t

(** {2 Time-weighted rows}

    The classic rows weight vulnerability by access counts (the paper's
    N_ha); these weight it by {e residency time}: how long each
    structure's lines sit in each level, clean or dirty, on the logical
    event clock (the tape's event ordinal — Jaulmes et al.'s
    delayed-error-reporting axis).  All integrals are exact integers
    ({!Cachesim.Residency}), so rows are bit-identical at any job
    count. *)

type time_row = {
  t_workload : string;
  t_base : Cachesim.Config.t;   (** the L1/base geometry *)
  t_level : int;                (** 1-based *)
  t_cache : Cachesim.Config.t;  (** this level's geometry *)
  t_structure : string;
  t_horizon : int;              (** run length in events (tape length) *)
  t_bins : int;
  clean_time : float;           (** line-events resident and clean *)
  dirty_time : float;           (** line-events resident and dirty *)
  t_fills : float;
  t_evictions : float;
  t_flushes : float;
  window : float array;         (** clean+dirty residency per time bin *)
  window_dirty : float array;   (** dirty share of each bin *)
}

val tw_dvf : time_row -> float
(** Time-weighted DVF kernel: resident bits integrated over logical time
    ([8 x line x (clean + dirty)] bit-events).  The FIT-rate and
    execution-time factors of the full DVF scale every structure alike
    and are omitted; rankings (and Spearman correlations against
    injection ground truth) are unchanged by that. *)

val timed_level_snapshots :
  ?telemetry:Dvf_util.Telemetry.t ->
  ?bins:int ->
  configs:Cachesim.Config.t list ->
  capture -> Cachesim.Residency.snapshot list
(** Replay one capture, in the calling domain, through one hierarchy
    geometry with a residency accumulator attached per level; returns
    one snapshot per level.  The horizon is the tape length.  Raises
    [Invalid_argument] on [bins <= 0].  Telemetry: ["tape/timed_replay_events"],
    ["residency/clean_line_events"|"dirty_line_events"|"fills"|
    "evictions"] counters and the ["verify/timed_total"] accumulator. *)

val capture_time_rows :
  ?telemetry:Dvf_util.Telemetry.t ->
  ?pool:Dvf_util.Parallel.Pool.t ->
  ?replicas:replica_store ->
  ?bins:int ->
  levels:int -> capture -> time_row list
(** One capture's time-weighted rows over every verification base
    geometry (what a [dvf serve] timed request runs against its warm
    capture); [pool] and [replicas] as in {!capture_rows}.  Rows are
    bit-identical to the corresponding slice of {!run_all_timed}. *)

val run_all_timed :
  ?jobs:int ->
  ?telemetry:Dvf_util.Telemetry.t ->
  ?store:Memtrace.Tape_store.t ->
  ?workloads:Workload.t list ->
  ?levels:int ->
  ?bins:int -> unit -> time_row list
(** Every workload against both verification geometries extended to
    [levels]-deep hierarchies (default 1), with per-level residency
    tracking ([bins] time windows, default
    {!Cachesim.Residency.default_bins}), on the engine and schedule of
    {!run_all}.  Rows are ordered workload-major, then base cache, then
    level, then structure, and are bit-identical at any [jobs].  Raises
    [Invalid_argument] on [bins <= 0] or outside [1 <= levels <= 3].
    Telemetry: the counters of {!timed_level_snapshots} plus a
    ["residency/bins"] gauge and the derived
    ["tape/timed_replay_events_per_sec"]. *)

val to_time_table : time_row list -> Dvf_util.Table.t
(** Per-structure clean/dirty line-event integrals, average resident
    lines, dirty share, and the time-weighted DVF. *)

val workload_totals :
  rows:row list -> string -> Cachesim.Config.t -> float * float
(** [(simulated, modeled)] main-memory accesses of one workload/cache
    pair, summed over its structures in row order.  The workload is
    named as in its rows.  Raises [Invalid_argument] when no row
    matches. *)

val workload_error : rows:row list -> string -> Cachesim.Config.t -> float
(** Aggregate (total-traffic) error of {!workload_totals}. *)

val to_table : row list -> Dvf_util.Table.t
