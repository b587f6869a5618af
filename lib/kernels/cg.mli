(** Conjugate Gradient (paper Table II / Algorithm 4).

    Dense symmetric positive-definite system [A x = b] solved by the
    classic CG recurrence.  Following the paper's access-order string
    [r (A p) p (x p) (A p) r (r p)], the implementation performs {e two}
    matrix–vector products per iteration (for the alpha denominator and
    for the residual update) instead of keeping an auxiliary [q] vector —
    exactly four major data structures: A, x, p, r.

    The default system is a diagonally dominant dense SPD matrix (a
    shifted 1-D Laplacian plus small symmetric noise), for which CG
    converges in a problem-size-dependent number of iterations. *)

type params = {
  n : int;               (** unknowns; A is n x n doubles *)
  max_iterations : int;
  tolerance : float;     (** stop when ||r||_2 < tolerance *)
  seed : int;            (** matrix/rhs generator seed *)
}

val make_params :
  ?max_iterations:int -> ?tolerance:float -> ?seed:int -> int -> params

val verification : params
(** Table V: 500 x 500 double matrix. *)

val profiling : params
(** Table VI: 800 x 800 double matrix. *)

type result = {
  iterations : int;       (** CG iterations actually run *)
  residual : float;       (** final ||r||_2 *)
  solution_error : float; (** ||x - x*||_inf against the generator's known solution *)
  flops : int;
}

(** The storage interface the CG recurrence runs against; the dense and
    sparse ({!Sparse_cg}) kernels, traced and untraced, all share the one
    loop in {!iterate}. *)
module type Vector_ops = sig
  val n : int
  val a_row_dot_p : int -> float
  (** row i of A, dotted with p *)

  val get_x : int -> float
  val set_x : int -> float -> unit
  val get_p : int -> float
  val set_p : int -> float -> unit
  val get_r : int -> float
  val set_r : int -> float -> unit
end

val iterate :
  ?on_iteration:(int -> unit) -> (module Vector_ops) -> max_iterations:int ->
  tolerance:float -> int * float
(** Run the CG recurrence (the paper's two-matvec phase order); returns
    [(iterations, final residual norm)].  Assumes [x = 0] and
    [p = r = b] on entry.  [on_iteration k] fires before iteration [k]
    (1-based) — the fault injector's hook. *)

val run : Memtrace.Region.t -> Memtrace.Tape.t -> params -> result
(** Solve, appending every traced reference to the tape: structures
    "A", "x", "p", "r" (8-byte elements). *)

val run_untraced : params -> result
(** Same computation without a trace (for iteration counting and the
    performance model). *)

val spec : ?iterations:int -> params -> Access_patterns.App_spec.t
(** CGPMAC description using the paper's access order; [iterations]
    defaults to the count measured by {!run_untraced} on small systems or
    [max_iterations] otherwise. *)

val flop_count : iterations:int -> params -> int
(** ~ [2 * (2 n^2) + 10 n] flops per iteration (two dense matvecs plus
    vector ops). *)
