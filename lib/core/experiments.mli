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
  ?fit:float -> ?cache:Cachesim.Config.t -> ?sizes:int list -> unit ->
  fig6_row list
(** Sweep problem sizes (default 100..800 in steps of 100, the paper's
    x-axis) solving the same SPD system with CG and Jacobi-PCG (dense
    auxiliary M, per Algorithm 5); iteration counts are measured on the
    real solvers, times come from the roofline model, cache defaults to
    the largest Table IV configuration (as in §V).  [jobs] (default
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
    {e once} into a {!Memtrace.Tape} ({!Verify.capture}) and all
    geometries are driven by the verification replay engine
    ({!Verify.capture_stats}) — one set-sharded walk per shard of the
    [jobs]-wide pool; results are independent of the width.  Each row's
    [sim_n_ha] then holds the simulated total main-memory accesses next
    to the analytic [n_ha].  Telemetry adds
    ["cache_sweep/<workload>/replay"] spans plus the shared
    ["tape/*"]/["shard/*"] counters and
    ["verify/capture_total"]/["verify/replay_total"] accumulators.

    [store] (only meaningful with [simulate]) routes the capture through
    a persistent tape store — a warm store skips kernel tracing
    entirely; see {!Verify.capture}.  [capture] supplies an already-made
    capture of {e this} [instance] instead (the [dvf serve] path, which
    holds every workload's capture in memory); it must belong to the
    same instance, and when given, [store] is not consulted. *)

val cache_sweep_table : label:string -> sweep_row list -> Dvf_util.Table.t

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
