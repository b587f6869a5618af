(** 1-D FFT (paper Table II, the NPB FT benchmark's 1-D FFT segment).

    Iterative radix-2 Cooley–Tukey transform of [n] complex points
    (16-byte elements, like NPB FT's double-complex): a bit-reversal
    permutation pass followed by [log2 n] butterfly passes over the whole
    array.  Twiddle factors are computed on the fly, so the single major
    data structure is the signal array "X" — the paper's template-based
    pattern whose repeated full traversals produce the Fig. 5(e) DVF
    cliff once the array no longer fits in the cache.

    The CGPMAC template is generated from the same pass structure as the
    kernel (bit-reversal reference pairs, then per-pass butterfly index
    streams). *)

type params = {
  n : int;       (** transform size; power of two *)
  repeats : int; (** how many forward transforms to run *)
  seed : int;
}

val make_params : ?repeats:int -> ?seed:int -> int -> params

val verification : params
(** Class S scale: 2^14 points (the paper's FT working set is ~33 KB;
    2^14 x 16 B = 256 KB covers the small/large verification caches'
    interesting regime; the 1-D segment of class S). *)

val profiling : params
(** 2^11 points = 32 KB, matching the paper's reported ~33 KB FT working
    set in Fig. 5(e) — small enough that only the 16 KB cache thrashes,
    producing the cliff. *)

type result = {
  checksum : float;         (** sum of output magnitudes *)
  max_roundtrip_error : float;
      (** max |x - IFFT(FFT(x))| over the signal; validates the
          transform *)
  flops : int;
}

val run : Memtrace.Region.t -> Memtrace.Tape.t -> params -> result
(** Run with tracing: every traced reference is appended to the tape. *)

val run_untraced : params -> result

val naive_dft : float array -> float array -> float array * float array
(** [naive_dft re im] is the O(n^2) reference DFT, for testing. *)

val fft_in_place : Complex.t array -> unit
(** Forward transform of a plain array (untraced); length must be a power
    of two.  Exposed for tests and the quickstart example. *)

val injection_passes : params -> int
(** Number of pass boundaries a fault can land on
    ([repeats * (1 + log2 n)]: bit-reversal plus the butterfly passes);
    {!run_injected}'s [flip_at] ranges over [0 .. injection_passes]
    inclusive (the last value strikes the finished output). *)

val run_injected :
  params ->
  flip_at:int ->
  pick:(int -> int) ->
  flip:(float -> float) ->
  Complex.t array
(** The forward transforms of [run_untraced] with one fault injected into
    the signal array "X" before pass number [flip_at]: [pick (2n)]
    chooses among the real and imaginary components, [flip] corrupts the
    chosen one.  With [flip = Fun.id] the output is bit-identical to the
    clean transform — the injector's reference. *)

val spec : params -> Access_patterns.App_spec.t
(** Template pattern for "X" mirroring the kernel's pass structure. *)
