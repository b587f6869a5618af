(** Statistical fault injection — the baseline methodology the paper
    argues DVF replaces (§I, §VI: "researchers have to perform a large
    amount of fault injection operations, which is prohibitively
    expensive").

    We implement it anyway, as the comparator: campaigns flip one random
    bit in one random element of one data structure at a uniformly random
    point of the execution, run to completion, and classify the outcome.
    Across many trials this estimates each structure's empirical
    vulnerability, which can be checked against the DVF ranking ([dvf
    inject] does exactly that).

    Outcome classes, following the soft-error literature:
    - [Benign]   — the final output matches the clean run (the flipped
                   value was dead, overwritten, or corrected);
    - [Sdc]      — silent data corruption: the run "succeeds" but its
                   output is wrong;
    - [Detected] — the application itself notices (NaN/Inf in the output,
                   or an iterative solver failing to converge). *)

type outcome = Benign | Sdc | Detected

type campaign = {
  structure : string;
  trials : int;
  benign : int;
  sdc : int;
  detected : int;
}

(** A pluggable per-workload fault injector: everything a generic
    campaign engine needs to bombard one kernel configuration.  [trial]
    runs the kernel once with a single strike on [structure], drawing the
    strike point, element and bit from the supplied RNG, and classifies
    the outcome; it also reports {e when} the flip landed as a fraction
    of the kernel's injection-slot range (0 = before the first slot,
    1 = after the last), derived from the already-drawn slot so the RNG
    stream and outcomes are unchanged by the stamp.  [spec] and [flops]
    describe the same configuration analytically, so empirical SDC rates
    can be correlated against DVF ({!Dvf_core.Injection} builds that
    report, and `dvf windows` bins SDC rate by the flip-time stamp). *)
type injector = {
  label : string;             (** e.g. ["CG n=60"], for reports *)
  spec : Access_patterns.App_spec.t;
  flops : int;
  structures : string list;   (** names match [spec]'s structures *)
  default_trials : int;
  trial : structure:string -> Dvf_util.Rng.t -> outcome * float;
}

val sdc_rate : campaign -> float
(** [sdc / trials] — the probability that a single strike on this
    structure silently corrupts the output. *)

val unsafe_rate : campaign -> float
(** [(sdc + detected) / trials]. *)

val flip_bit : float -> bit:int -> float
(** Flip one bit (0..63) of a double's IEEE-754 representation. *)

val tally : string -> outcome list -> campaign
(** Count outcomes into a campaign record for [structure]. *)

val trial_rng : seed:int -> structure_index:int -> trial:int -> Dvf_util.Rng.t
(** The RNG for one trial, derived from the campaign seed through two
    splitmix64 rounds ({!Dvf_util.Rng.sub_seed}).  This is the seeding
    contract {!run_campaigns} and any parallel engine must share: equal
    coordinates give equal streams regardless of evaluation order. *)

val run_campaigns : ?seed:int -> ?trials:int -> injector -> campaign list
(** One campaign per structure of [inj], [trials] trials each (default
    [inj.default_trials]; [seed] defaults to 1234).  Every trial's RNG is
    derived from [(seed, structure index, trial index)] via splitmix64
    ({!Dvf_util.Rng.sub_seed}), so outcomes are independent of evaluation
    order — a parallel engine partitioning the trials reproduces this
    serial run bit for bit. *)

val vm_injector : ?trials:int -> Vm.params -> injector
(** Structures A, B, C: the flip lands before a uniformly random loop
    iteration; the corrupted checksum is compared against the clean one.
    [trials] sets [default_trials] (400). *)

val cg_injector : ?trials:int -> Cg.params -> injector
(** Structures A, x, p, r: the flip lands at a uniformly random iteration
    boundary of a converging solve.  [Detected] = the solver fails to
    reach its tolerance within an iteration headroom; [Sdc] = it
    converges to a wrong solution.  [trials] sets [default_trials]
    (200). *)

val nb_injector : ?trials:int -> Barnes_hut.params -> injector
(** Structures T (live tree node fields) and P (particles + force
    accumulators); outputs are the per-particle forces.  [trials] sets
    [default_trials] (200). *)

val mg_injector : ?trials:int -> Multigrid.params -> injector
(** Structures R, U, V; observables are the finest-level solution sum and
    the final residual.  [Detected] = non-finite values or a residual
    more than 10x the clean initial residual (a failure to contract a
    solver driver would flag).  [trials] sets [default_trials] (200). *)

val ft_injector : ?trials:int -> Fft.params -> injector
(** Structure X (the signal array); the transformed spectrum is compared
    element-wise against the clean one.  [trials] sets [default_trials]
    (300). *)

val mc_injector : ?trials:int -> Monte_carlo.params -> injector
(** Structures G (energy grid) and E (nuclide data); the accumulated
    cross section is compared against the clean total.  [trials] sets
    [default_trials] (200). *)

val vm_campaign :
  ?trials:int -> ?seed:int -> Vm.params -> campaign list
(** [run_campaigns] over {!vm_injector}. *)

val cg_campaign :
  ?trials:int -> ?seed:int -> Cg.params -> campaign list
(** [run_campaigns] over {!cg_injector} ([seed] defaults to 91). *)

val sdc_interval : ?z:float -> campaign -> float * float
(** Wilson score interval for the SDC rate ({!Dvf_util.Maths.wilson_interval};
    95% by default).  [(0, 1)] for an empty campaign. *)

val to_table : ?title:string -> campaign list -> Dvf_util.Table.t
(** Counts, SDC rate (4 decimal places) and its 95% Wilson interval.
    [title] defaults to ["Fault-injection campaign"]. *)

val rank_by_sdc : campaign list -> string list
(** Structure names by descending SDC {e rate} (ties broken by name), so
    campaigns with unequal trial counts rank correctly. *)
