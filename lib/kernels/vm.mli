(** Vector Multiplication (paper Table II / Algorithm 1).

    [C_i <- C_i + A_{i*ja} * B_{i*jb}] for [i = 0 .. n-1]: three structures
    A, B, C, all streaming, A and B with configurable strides.  The paper's
    homemade VM kernel uses an integer array; we trace 4-byte elements by
    default but the element size is a parameter. *)

type params = {
  n : int;            (** loop trip count (elements of C touched) *)
  stride_a : int;     (** A's stride in elements *)
  stride_b : int;
  elem_size : int;    (** traced element size in bytes *)
}

val make_params :
  ?stride_a:int -> ?stride_b:int -> ?elem_size:int -> int -> params
(** [make_params n] with strides defaulting to 4 and 1 (so A shows the
    larger-stride behaviour Fig. 5(a) discusses) and 4-byte elements. *)

val verification : params
(** Table V: 10^3-element integer array. *)

val profiling : params
(** Table VI: 10^5-element integer array. *)

type result = { checksum : float; flops : int }

val run : Memtrace.Region.t -> Memtrace.Tape.t -> params -> result
(** Execute the kernel, appending every traced reference to the tape.
    A is registered with [n * stride_a] elements (the strided traverse
    spans that extent), similarly B; C has [n] elements. *)

val spec : params -> Access_patterns.App_spec.t
(** The analytical CGPMAC description (three streaming structures). *)

val flop_count : params -> int
(** 2 flops (mul+add) per iteration — input for the performance model. *)
