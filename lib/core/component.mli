(** DVF for hardware components beyond main memory.

    The paper limits its experiments to main memory but states (§I) that
    "the definition of DVF is also applicable to other hardware
    components (e.g., cache hierarchy, register file ...)".  This module
    instantiates Eq. 1 for the last-level cache:

    - [S_d] becomes the structure's {e resident} footprint in the cache —
      capped by its proportional share of the capacity, since errors can
      only strike the bytes actually held in SRAM;
    - [N_ha] becomes the structure's {e program references} (every load
      and store reaches the cache, not just the misses) — estimated
      analytically by {!Access_patterns.App_spec.cache_references};
    - FIT is the cache's own failure rate.  SRAM cells are more
      susceptible per bit than DRAM but caches are small; the default
      follows the soft-error literature's ~10^-3 FIT/bit order:
      1000 FIT/Mbit.

    Comparing a structure's memory-DVF and cache-DVF tells a designer
    {e which component's} protection (DRAM ECC vs cache parity/ECC) that
    structure needs most. *)

type component_dvf = {
  memory : Dvf.app_dvf;
  cache : Dvf.app_dvf;
}

val default_cache_fit : float
(** 1000 FIT/Mbit. *)

val cache_dvf :
  ?fit:float -> cache:Cachesim.Config.t -> time:float ->
  Access_patterns.App_spec.t -> Dvf.app_dvf
(** Eq. 1 instantiated for the LLC as described above. *)

val both :
  ?cache_fit:float -> machine:Perf.machine -> cache:Cachesim.Config.t ->
  flops:int -> Access_patterns.App_spec.t -> component_dvf
(** Memory DVF (the paper's) and cache DVF side by side.  The memory DVF
    is [spec]'s {!Dvf.of_spec} at the unprotected 5000 FIT/Mbit; the cache
    DVF reuses its execution time, so the memory models run once per
    (spec, cache). *)

val to_table : component_dvf -> Dvf_util.Table.t
(** Per-structure comparison: sizes, resident bytes, both DVFs, and which
    component dominates each structure's vulnerability. *)
