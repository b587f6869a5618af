(** ECC protection schemes and their FIT rates (paper Table VII, §V-B).

    The table quotes post-protection error rates for main memory:
    no ECC 5000 FIT/Mbit, chipkill-correct 0.02, SECDED 1300, drawn from
    the memory-reliability studies the paper cites.  Applying ECC also
    costs performance; §V-B sweeps a hypothetical degradation from 0 to
    30 % and finds DVF minimized near 5 % — because past some point the
    longer exposure time outweighs the lower error rate. *)

type scheme = No_ecc | Secded | Chipkill

val all : scheme list
(** In Table VII order. *)

val name : scheme -> string

val fit : scheme -> float
(** FIT/Mbit with the scheme in place (Table VII). *)

val degraded_time : base_time:float -> degradation:float -> float
(** [base_time * (1 + degradation)]; [degradation] is a fraction
    (0.05 = 5 %).  Raises [Invalid_argument] if [degradation < 0]. *)

val effective_fit :
  ?full_strength_degradation:float -> degradation:float -> scheme -> float
(** The error rate actually achieved when the system is willing to pay
    [degradation] of performance for protection.  Fig. 7's U-shape — DVF
    falling until ~5 % degradation and rising afterwards — implies the
    paper treats the protection strength as scaling with the invested
    overhead: below full strength the scheme only partially corrects.
    We model this with log-linear interpolation from the unprotected FIT
    down to the scheme's Table VII FIT, reached at
    [full_strength_degradation] (default 0.05, the paper's observed
    optimum); beyond that the FIT stays at the scheme's floor while the
    exposure time keeps growing. *)

val protected_dvf :
  ?full_strength_degradation:float -> degradation:float -> scheme ->
  Dvf.app_dvf -> Dvf.app_dvf
(** DVF of the application with {!effective_fit} and the degraded
    execution time — the quantity Fig. 7 sweeps.  The argument is the
    unprotected application from {!Dvf.of_spec}: its [N_ha] and [time]
    are the base, its [fit] is ignored.  Only FIT and T change, so this
    is a {!Dvf.rescale}; the models are not evaluated again. *)

val optimal_degradation :
  ?full_strength_degradation:float -> max_degradation:float -> steps:int ->
  scheme -> Dvf.app_dvf -> float * float
(** Grid search over [0, max_degradation] of {!protected_dvf} on the
    unprotected base application: the [(degradation, dvf)] pair
    minimizing DVF. *)
