(** The paper's use cases and static tables (§V, Tables II, IV–VII).

    {!fig6} — CG vs PCG vulnerability over problem size: the paper finds
    PCG slightly {e more} vulnerable than CG at small sizes (its extra
    working set dominates) and {e less} vulnerable at large sizes (its
    faster convergence dominates).

    {!fig7} — DVF versus the performance degradation invested in ECC:
    protection lowers DVF steeply until the scheme reaches full strength
    (~5 %), after which the longer exposure raises it again; chipkill
    sits far below SECDED. *)

type fig6_row = {
  n : int;
  cg_iterations : int;
  pcg_iterations : int;
  cg_time : float;
  pcg_time : float;
  cg_dvf : float;
  pcg_dvf : float;
}

val fig6 :
  ?jobs:int -> ?telemetry:Dvf_util.Telemetry.t -> ?machine:Perf.machine ->
  ?fit:float -> ?cache:Cachesim.Config.t -> ?sizes:int list ->
  ?preconditioner:Kernels.Pcg.preconditioner -> unit -> fig6_row list
(** Sweep problem sizes (default 100..800 in steps of 100, the paper's
    x-axis) solving the same SPD system with CG and Jacobi-PCG;
    iteration counts are measured on the real solvers, times come from
    the roofline model, cache defaults to the largest Table IV
    configuration (as in §V).  [preconditioner] (default [`Vector], the
    diagonal kept as a vector) picks how PCG stores M; [`Dense_matrix]
    is Algorithm 5's literal dense auxiliary matrix.  [jobs] (default
    [Domain.recommended_domain_count ()]) runs the independent sweep
    points on that many domains; output order is unchanged.

    [telemetry] (default {!Dvf_util.Telemetry.null}) records a
    ["fig6/points"] counter, per-point ["fig6/point"] span, the sweep's
    ["fig6/total"] wall-clock, and pool wait/compute when [jobs > 1]. *)

val fig6_table : fig6_row list -> Dvf_util.Table.t

type fig7_row = {
  degradation : float;     (** fraction of performance lost *)
  secded_dvf : float;
  chipkill_dvf : float;
}

val fig7 :
  ?machine:Perf.machine -> ?cache:Cachesim.Config.t -> ?steps:int ->
  ?max_degradation:float -> unit -> fig7_row list
(** VM (Table VI size) under SECDED and chipkill across performance
    degradations 0..30 % (the paper's x-axis). *)

val fig7_table : fig7_row list -> Dvf_util.Table.t

val fig7_optimum : fig7_row list -> float * float
(** [(secded_opt, chipkill_opt)] degradations minimizing DVF. *)

type sweep_row = {
  capacity : int;        (** bytes *)
  sweep_cache : Cachesim.Config.t;
  dvf_a : float;
  n_ha : float;            (** analytic (CGPMAC) total main-memory accesses *)
  sim_n_ha : float option; (** trace-driven total, when [simulate] was set *)
}

val cache_sweep :
  ?jobs:int -> ?telemetry:Dvf_util.Telemetry.t -> ?machine:Perf.machine ->
  ?fit:float -> ?line:int ->
  ?associativity:int -> ?capacities:int list -> ?simulate:bool ->
  ?store:Memtrace.Tape_store.t ->
  ?capture:Verify.capture ->
  Workload.instance ->
  sweep_row list
(** Generalization of Fig. 5's x-axis: DVF_a of one application over a
    continuous range of cache capacities (default 4 KB .. 16 MB doubling,
    8-way, 64 B lines).  Exposes each kernel's working-set cliffs at full
    resolution instead of Table IV's four points.  [jobs] and [telemetry]
    as in {!fig6} (telemetry paths use the ["cache_sweep"] label).

    [simulate] (default [false]) additionally runs the trace-driven
    simulator over every sweep geometry: the workload's trace is captured
    {e once} into a {!Memtrace.Tape} ({!Verify.capture}) and walked
    {e once} for all geometries by {!Cachesim.Sweep} — one walk per shard
    of the replay engine's width ({!Verify.shard_width} of [jobs] and the
    geometries), statistics merged in shard order; results are
    independent of the width.  Each row's [sim_n_ha] then holds the
    simulated total main-memory accesses next to the analytic [n_ha].
    Telemetry adds one ["cache_sweep/<workload>/replay"] span per call,
    the ["tape/replay_events"] counter (tape events x geometries), the
    ["shard/tasks"] counter and the ["shard/count"] gauge (both the
    width), plus ["pool/*"] when [jobs] exceeds 1 and the capture
    telemetry of {!Verify.capture} when the trace is captured here.
    One domain pool, [jobs] wide, serves both the shard walks and the
    per-geometry model evaluations of a call.

    [store] (only meaningful with [simulate]) routes the capture through
    a persistent tape store — a warm store skips kernel tracing
    entirely; see {!Verify.capture}.  [capture] supplies an already-made
    capture of {e this} [instance] instead (the [dvf serve] path, which
    holds every workload's capture in memory); it must belong to the
    same instance, and when given, [store] is not consulted. *)

val cache_sweep_table : label:string -> sweep_row list -> Dvf_util.Table.t

val simulated_sweeps : ?jobs:int -> unit -> Dvf_util.Table.t list
(** The simulated capacity sweeps of the VM, FT and MC profiling
    instances ({!cache_sweep} with [simulate], default capacities), one
    table each.  Tables are identical at any [jobs]. *)

(** {2 Ablations and extensions}

    Each returns a table and the report lines printed after it. *)

val ablation : unit -> Dvf_util.Table.t * string list
(** The model's design choices on the small verification cache:
    (a) Eq. 8's Bernoulli allocation vs a uniform one against a
    two-structure LRU run; (b) FT's template under stack vs raw reuse
    distance; (c) the MC simulation against the random model with runs
    of one element (the paper's bound) and with its run length;
    (d) Fig. 6 at n = 800 with a vector vs a dense-matrix
    preconditioner. *)

val sparse_cg : unit -> Dvf_util.Table.t * string list
(** Fig. 4's verification of the sparse (CSR) CG kernel, on a 64 x 64
    Laplacian for 8 iterations, over both verification caches; then the
    DVF_a of one tridiagonal system stored dense vs CSR. *)

(** Static table renderers. *)

(** Table II: the six algorithms. *)
val table2 : unit -> Dvf_util.Table.t

(** Table IV: cache configurations. *)
val table4 : unit -> Dvf_util.Table.t

(** Table V: verification input sizes. *)
val table5 : unit -> Dvf_util.Table.t

(** Table VI: profiling input sizes. *)
val table6 : unit -> Dvf_util.Table.t

(** Table VII: FIT with ECC in place. *)
val table7 : unit -> Dvf_util.Table.t
