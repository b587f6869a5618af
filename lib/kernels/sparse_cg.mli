(** Sparse Conjugate Gradient over CSR storage — NPB CG's actual shape
    (Table II files CG under {e sparse} linear algebra; the paper's own
    experiments substitute a dense matrix, which {!Cg} reproduces, so this
    module is the reproduction's faithful-to-NPB extension).

    Traced structures, mirroring NPB CG's arrays:
    - "a"      — nonzero values, 8-byte doubles, streamed per matvec;
    - "colidx" — column indices, 4-byte ints, streamed per matvec;
    - "rowstr" — row pointers, 4-byte ints, streamed per matvec;
    - "x", "p", "r" — 8-byte vectors; [p] is gathered through [colidx]
      inside the matvec (banded locality for the built-in Laplacian).

    The solver reuses {!Cg.iterate}, so its recurrence, phase order and
    iteration counts are shared with the dense kernel. *)

type problem = [ `Laplacian_2d of int | `Tridiagonal of int ]
(** [`Laplacian_2d k] is the 5-point operator on a k x k grid
    (n = k^2); [`Tridiagonal n] is the {!Spd} system in sparse form. *)

type params = {
  problem : problem;
  max_iterations : int;
  tolerance : float;
  seed : int;
}

val make_params :
  ?max_iterations:int -> ?tolerance:float -> ?seed:int -> problem -> params

val verification : params
(** 64 x 64 Laplacian grid (n = 4096, nnz ~ 20k): bounded trace size. *)

type result = {
  n : int;
  nnz : int;
  iterations : int;
  residual : float;
  solution_error : float;
  flops : int;
}

val run : Memtrace.Region.t -> Memtrace.Tape.t -> params -> result
(** Run with tracing: every traced reference is appended to the tape. *)

val run_untraced : params -> result

val spec : ?iterations:int -> params -> Access_patterns.App_spec.t
(** The paper's CG access order with sparse structures: per matvec phase,
    "a"/"colidx" stream their nnz entries, "rowstr" streams its n+1
    pointers, and "p" is re-touched once per row. *)
