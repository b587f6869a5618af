(** The Data Vulnerability Factor (paper §III-A, Eq. 1–2).

    For a data structure [d]:
    {v DVF_d = N_error * N_ha = FIT * T * S_d * N_ha v}
    where FIT is the memory failure rate (failures per 10^9 hours per
    Mbit), [T] the application execution time, [S_d] the structure's
    size, and [N_ha] the number of main-memory accesses attributable to
    the structure (estimated by the CGPMAC models).  The application DVF
    is the sum over its major data structures (Eq. 2).

    Units: [N_error] is computed in physical units (expected failures
    striking the structure during the run), which for realistic FIT rates
    is a very small number; the paper plots unit-free DVF values of
    O(0.01)–O(10^4) without stating a normalization.  We therefore report
    [DVF = N_error * N_ha * scale] with a fixed documented
    [scale = 1e9] (equivalently: FIT interpreted as failures per hour per
    Mbit).  All of the paper's conclusions are comparative, so the scale
    cancels; it only places the numbers in a readable range.

    A weighted generalization [DVF = N_error^alpha * N_ha^beta] (the
    refinement sketched in §III-A) is available through [?alpha] and
    [?beta]. *)

type structure_dvf = {
  name : string;
  bytes : int;            (** S_d *)
  n_ha : float;           (** estimated main-memory accesses *)
  n_error : float;        (** FIT * T * S_d, scaled as documented above *)
  dvf : float;
}

type app_dvf = {
  app_name : string;
  fit : float;            (** FIT used, failures / (10^9 h * Mbit) *)
  time : float;           (** T in seconds *)
  n_ha : float;           (** the structures' N_ha, summed in order *)
  structures : structure_dvf list;
  total : float;          (** DVF_a, Eq. 2 *)
}

val scale : float
(** The fixed normalization constant (1e9). *)

val structure :
  ?alpha:float -> ?beta:float -> fit:float -> time:float -> bytes:int ->
  n_ha:float -> string -> structure_dvf
(** Eq. 1 for one structure.  [alpha]/[beta] default to 1 (the paper's
    straight product).  Raises [Invalid_argument] on negative inputs. *)

val of_spec :
  ?alpha:float -> ?beta:float -> machine:Perf.machine ->
  cache:Cachesim.Config.t -> fit:float -> flops:int ->
  Access_patterns.App_spec.t -> app_dvf
(** The one place a spec meets a cache: the CGPMAC models run once for
    the per-structure [N_ha], summed in order into [n_ha]; T is the
    roofline [Perf.execution_time machine ~cache ~flops ~n_ha]; then
    Eq. 1 per structure and Eq. 2 for the total. *)

val rescale : fit:float -> time:float -> app_dvf -> app_dvf
(** Eq. 1 and Eq. 2 re-applied to [app]'s [(S_d, N_ha)] pairs at a new
    FIT and T, without running the models again (ECC, a declared time),
    with the default exponents [alpha = beta = 1].
    [rescale ~fit:app.fit ~time:app.time app = app]. *)

val of_counts :
  ?alpha:float -> ?beta:float -> fit:float -> time:float ->
  app_name:string -> (string * int * float) list -> app_dvf
(** Build from explicit [(name, bytes, n_ha)] triples — e.g. when [N_ha]
    comes from the cache simulator instead of the analytical models. *)

val pp_app : Format.formatter -> app_dvf -> unit
