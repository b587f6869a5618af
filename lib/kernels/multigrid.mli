(** Multi-grid V-cycle (paper Table II, NPB MG's V-cycle kernel).

    3-D Poisson problem on an [m^3] grid (7-point Laplacian), solved by a
    sawtooth V-cycle: residual on the finest grid, restriction down the
    hierarchy, Gauss–Seidel relaxation on the coarsest level, then
    prolongation + post-smoothing back up.  All grid levels of a quantity
    live in one address region, as in NPB:

    - "R": residual / restricted right-hand-side hierarchy,
    - "U": solution hierarchy,
    - "V": right-hand side on the finest grid.

    The smoother is the template-based access pattern of the paper's
    Algorithm 3 generalized to the full 7-point stencil; the CGPMAC spec
    reproduces every sweep's reference stream exactly (the loops in
    {!spec} mirror the kernel's), so the template model is exercised on
    the real V-cycle traffic. *)

type params = {
  m : int;             (** finest grid dimension; power of two >= 8 *)
  levels : int;        (** hierarchy depth; coarsest grid is m / 2^(levels-1) *)
  v_cycles : int;
  post_smooth : int;   (** relaxation sweeps after each prolongation *)
  coarse_smooth : int; (** relaxation sweeps on the coarsest level *)
  seed : int;
}

val make_params :
  ?levels:int -> ?v_cycles:int -> ?post_smooth:int -> ?coarse_smooth:int ->
  ?seed:int -> int -> params
(** [make_params m]; [levels] defaults to the maximum depth with coarsest
    grid >= 4, [v_cycles] to 2, [post_smooth] to 2, [coarse_smooth] to 8. *)

val verification : params
(** Class S: 32^3 finest grid. *)

val profiling : params
(** Class W scaled to 64^3 (the analytical models evaluate at any size;
    the trace-driven verification is what needs a bounded grid). *)

type result = {
  initial_residual : float;
  final_residual : float;   (** L2 norm of [V - A U] on the finest grid *)
  flops : int;
}

val run : Memtrace.Region.t -> Memtrace.Tape.t -> params -> result
(** Run with tracing: every traced reference is appended to the tape. *)

val run_untraced : params -> result

val spec : params -> Access_patterns.App_spec.t
(** Template patterns for "R" and "U" (exact reference streams of the
    V-cycle sweeps), streaming for "V"; cache shares proportional to the
    structure sizes, as the paper splits the cache between concurrently
    accessed structures. *)

val level_size : params -> int -> int
(** Grid dimension of level [l]. *)

val level_offset : params -> int -> int
(** Element offset of level [l] within the hierarchy region. *)

val hierarchy_elements : params -> int
(** Total elements across all levels of R or U. *)

val injection_phases : params -> int
(** Number of sweep boundaries across all V-cycles a fault can land on;
    {!run_injected}'s [flip_at] ranges over [0 .. injection_phases]
    inclusive (the last value strikes after the final sweep). *)

val run_injected :
  params ->
  structure:[ `R | `U | `V ] ->
  flip_at:int ->
  pick:(int -> int) ->
  flip:(float -> float) ->
  result * float
(** Untraced V-cycles with one fault injected before sweep number
    [flip_at]: [pick len] chooses the element, [flip] corrupts it.
    Returns the result plus the finest-level solution sum (the observable
    output).  With [flip = Fun.id] both are bit-identical to a clean
    [run_untraced] — the injector's reference. *)
