(** Preconditioned Conjugate Gradient (paper Algorithm 5, §V-A).

    Solves the same SPD system as {!Cg} with a Jacobi preconditioner.  The
    paper's PCG carries "an auxiliary matrix M and an auxiliary vector z".
    Two storage modes are provided:

    - [`Vector] (default): M is the inverse diagonal, an O(n) structure.
      This is the mode that reproduces Fig. 6 — PCG's working set is only
      two vectors larger than CG's, so at large problem sizes its much
      smaller iteration count wins on both time and traffic, while at
      small sizes the extra structures make it slightly more vulnerable.
    - [`Dense_matrix]: M stored as an explicit dense n x n matrix applied
      by a full matrix–vector product.  Its O(n^2) footprint and traffic
      grow faster than the O(sqrt n) iteration gain, so PCG then {e never}
      wins — [dvf ablation] uses this mode to show how storage choices
      for the same algorithm invert the resilience conclusion. *)

type preconditioner = [ `Dense_matrix | `Vector ]

type params = {
  n : int;
  max_iterations : int;
  tolerance : float;
  seed : int;
  preconditioner : preconditioner;
}

val make_params :
  ?max_iterations:int -> ?tolerance:float -> ?seed:int ->
  ?preconditioner:preconditioner -> int -> params

val profiling : params
(** 800 x 800, matching {!Cg.profiling}. *)

type result = {
  iterations : int;
  residual : float;
  solution_error : float;
  flops : int;
}

val run : Memtrace.Region.t -> Memtrace.Tape.t -> params -> result
(** Solve, appending every traced reference to the tape.  Traced
    structures: "A", "M", "x", "p", "r", "z" (8-byte elements).
    In [`Vector] mode M has n elements instead of n^2. *)

val run_untraced : params -> result

val spec : ?iterations:int -> params -> Access_patterns.App_spec.t
(** CGPMAC description of one PCG iteration (CG's order extended with the
    preconditioner solve and the z-vector phases). *)

val flop_count : iterations:int -> params -> int
