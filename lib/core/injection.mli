(** Parallel fault campaigns over registered workloads, and their
    comparison against the analytical DVF (the paper's §VI argument, run
    in both directions: DVF is cheap where injection is expensive, and
    the two should rank structures alike).

    One engine serves every {!Fault_model}: it fans the (target, trial)
    grid over {!Dvf_util.Parallel} domains with trial RNGs derived from
    [(seed, target index, trial index)] via splitmix64
    ({!Kernels.Fault_injection.trial_rng}), so the tallies are
    bit-identical to the serial {!Kernels.Fault_injection.run_campaigns}
    at any job count.  {!run}/{!run_all}/{!run_timed} are the historical
    bit-flip entry points (wrapping {!Fault_model.of_injector});
    {!run_model}/{!run_model_all} run any model — {!Chaos} drives them
    with {!Fault_model.component_kill}. *)

type result = {
  workload : string;                (** registry name, e.g. "CG" *)
  label : string;                   (** injector label, e.g. "CG n=60" *)
  spec : Access_patterns.App_spec.t;
  flops : int;
  seed : int;
  campaigns : Kernels.Fault_injection.campaign list;
}

val default_seed : int
(** 1234. *)

val run :
  ?seed:int -> ?trials:int -> ?jobs:int ->
  ?telemetry:Dvf_util.Telemetry.t -> Workload.t -> result option
(** Run one workload's injector ([None] if it has none).  [trials]
    overrides the injector's default, per structure; [jobs] defaults to
    1 (serial).

    [telemetry] (default {!Dvf_util.Telemetry.null}) records, per
    workload, an ["inject/<workload>/setup"] span (the uninjected clean
    reference run an injector is built around) and an
    ["inject/<workload>/trials"] timer, plus campaign-wide
    ["inject/trials"], the derived ["inject/trials_per_sec"] gauge and
    ["inject/clean_run_amortization_sec"] — setup seconds amortized per
    trial.  Tallies are unaffected: counters are identical at every job
    count. *)

val run_all :
  ?seed:int -> ?trials:int -> ?jobs:int ->
  ?telemetry:Dvf_util.Telemetry.t -> Workload.t list -> result list
(** {!run} for every workload that has an injector, sharing one domain
    pool across the whole batch.  Workloads without injectors are
    skipped. *)

val to_table : result -> Dvf_util.Table.t
(** Per-structure outcome counts, SDC rates and Wilson intervals. *)

val run_model :
  ?seed:int -> ?trials:int -> ?jobs:int ->
  ?telemetry:Dvf_util.Telemetry.t -> ?section:string -> workload:string ->
  Fault_model.t -> Kernels.Fault_injection.campaign list
(** Run the shared engine over an arbitrary fault model: one campaign
    per model target, [trials] trials each (default the model's own).
    [section] (default ["campaign"]) namespaces the telemetry —
    ["<section>/<workload>/trials"], ["<section>/trials"] and the
    derived ["<section>/trials_per_sec"] gauge.  The seeding grid is the
    one {!run} uses, so a bit-flip model round-trips bit-identically. *)

val run_model_all :
  ?seed:int -> ?trials:int -> ?jobs:int ->
  ?telemetry:Dvf_util.Telemetry.t -> ?section:string ->
  (string * Fault_model.t) list ->
  (string * Kernels.Fault_injection.campaign list) list
(** {!run_model} for several [(workload, model)] pairs, sharing one
    domain pool across the whole batch. *)

(** A campaign re-binned by {e when} each trial's flip landed (the
    fraction of the run completed at injection time), the ground truth
    `dvf windows` correlates the time-weighted DVF against. *)
type timed = {
  base : result;
  time_bins : int;
  windows : (string * (int array * int array)) list;
      (** per structure: trials whose flip landed in each bin of [0,1],
          and how many of those were SDC *)
}

val default_bins : int
(** 20. *)

val run_timed :
  ?seed:int -> ?trials:int -> ?jobs:int ->
  ?telemetry:Dvf_util.Telemetry.t -> ?bins:int -> Workload.t -> timed option
(** {!run}, also binning each trial by its flip-time fraction into
    [bins] (default {!default_bins}) windows.  The flip-time stamp is
    derived from the flip slot the trial already draws, so [base] is
    bit-identical to {!run} with the same seed/trials at any job count.
    Raises [Invalid_argument] on [bins <= 0]. *)

(** One (workload, structure) point of the comparison. *)
type row = {
  row_workload : string;
  structure : string;
  trials : int;
  sdc : int;
  rate : float;          (** empirical SDC rate *)
  ci : float * float;    (** its 95% Wilson interval *)
  dvf : float;           (** analytical DVF of the same structure *)
}

type correlation = {
  cache : Cachesim.Config.t;
  fit : float;
  rows : row list;
  per_workload : (string * float) list;
      (** Spearman rho per workload, where defined (needs >= 2
          structures with rank variance) *)
  overall : float;       (** Spearman rho pooled over all rows *)
}

val default_fit : float
(** 5000 failures / (10^9 h * Mbit), the paper's Fig. 5 baseline. *)

val correlate :
  ?cache:Cachesim.Config.t -> ?fit:float -> ?machine:Perf.machine ->
  result list -> correlation
(** Evaluate each result's spec once with {!Dvf.of_spec} (execution
    time from the {!Perf} roofline on the same [N_ha]) and pair every structure's empirical SDC rate
    with its analytical DVF.  [cache] defaults to
    {!Cachesim.Config.profiling_4mb}.  Raises [Invalid_argument] if a
    campaign structure is missing from the spec. *)

val correlation_table : correlation -> Dvf_util.Table.t

val pp_spearman : Format.formatter -> correlation -> unit
(** The per-workload and pooled rank correlations, one per line. *)
