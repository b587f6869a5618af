(** Monte Carlo macroscopic cross-section lookup (paper Table II, the
    XSBench benchmark).

    Two structures are accessed randomly and concurrently, as in XSBench:

    - "G": the unionized energy grid ([grid_points] entries, 8-byte
      energies, uniformly spaced so a lookup indexes directly);
    - "E": the nuclide cross-section data ([grid_points * nuclides]
      entries, 8 bytes each; a lookup gathers one entry per nuclide at the
      energy's grid row and interpolates with the next row).

    Each of the [lookups] iterations samples a random energy, reads the
    two bracketing grid entries from G and [2 * nuclides] entries from E,
    and accumulates the macroscopic cross section.  The paper splits the
    cache between G and E proportionally to their sizes
    ([r_G = S_G / (S_G + S_E)]); {!spec} does the same. *)

type params = {
  grid_points : int;
  nuclides : int;
  lookups : int;
  seed : int;
}

val make_params : ?grid_points:int -> ?nuclides:int -> ?seed:int -> int -> params
(** [make_params lookups]; defaults: 4096 grid points, 16 nuclides. *)

val verification : params
(** Table V: size small, 10^3 lookups. *)

val profiling : params
(** Table VI: size small, 10^5 lookups, on a 16384-point grid with 32
    nuclides (XSBench's "small" data is hundreds of MB; this keeps its
    defining property — nuclide data far larger than any cache — at a
    size the analytical sweep evaluates instantly). *)

type result = {
  total_xs : float;   (** accumulated macroscopic cross section *)
  flops : int;
}

val run : Memtrace.Region.t -> Memtrace.Tape.t -> params -> result
(** Run with tracing: every traced reference is appended to the tape. *)

val run_untraced : params -> result

val spec : params -> Access_patterns.App_spec.t
(** Random-access models for G (k = 2 visits/lookup) and E
    (k = 2 * nuclides visits/lookup) with proportional cache shares. *)

val injection_lookups : params -> int
(** Number of lookup boundaries a fault can land on; {!run_injected}'s
    [flip_at] ranges over [0 .. injection_lookups - 1] (G and E are pure
    inputs, so a strike after the last lookup cannot reach the output). *)

val run_injected :
  params ->
  structure:[ `G | `E ] ->
  flip_at:int ->
  pick:(int -> int) ->
  flip:(float -> float) ->
  result
(** Untraced lookups with one fault injected before lookup [flip_at]:
    [pick len] chooses the element of the materialized grid (G) or
    nuclide table (E), [flip] corrupts it.  The interpolation fraction is
    computed from the grid energies actually read (XSBench-style), so the
    clean reference is this function with [flip = Fun.id] — {e not}
    [run_untraced], whose fraction is analytic. *)
