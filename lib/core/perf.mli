(** Aspen-style analytical performance model.

    DVF's [T] term needs an execution time.  The paper measures native
    wall-clock; our substitute is the classic roofline bound Aspen itself
    uses for coarse modeling:
    {v T = max(flops / peak_flops, bytes_moved / memory_bandwidth) v}
    with [bytes_moved = N_ha * CL].  Absolute DVF magnitudes shift with
    the machine constants, but every Fig. 5–7 comparison is between runs
    on the same machine model, so the conclusions are unaffected. *)

type machine = {
  name : string;
  peak_flops : float;       (** flop/s *)
  memory_bandwidth : float; (** bytes/s *)
}

val default_machine : machine
(** A 2014-era compute node: 100 Gflop/s, 50 GB/s. *)

val make_machine :
  name:string -> peak_flops:float -> memory_bandwidth:float -> machine
(** Raises [Invalid_argument] on non-positive rates. *)

val execution_time :
  machine -> cache:Cachesim.Config.t -> flops:int -> n_ha:float -> float
(** Roofline time for a phase with [flops] operations and [n_ha]
    main-memory accesses of one cache line each.  {!Dvf.of_spec} calls
    it with the [N_ha] it has just evaluated, so an application's T and
    its DVF come from one model run per (spec, cache). *)
