(** Synthetic trace generation from a CGPMAC application spec.

    Native workloads trace their instrumented implementation; a workload
    loaded from an Aspen model file has no implementation to run.  This
    module closes the Fig. 4 loop for such workloads by replaying the
    spec's declared access patterns as a memory trace:

    - a streaming pattern emits one strided traverse (reads, plus a store
      per element when the pattern writes back);
    - a template emits its reference sequence with its store flags;
    - a random pattern emits the construction pass the model assumes
      (one sequential touch per element) followed by [iterations] rounds
      of [visits] uniformly-drawn element visits in runs of [run_length],
      from a fixed-seed generator;
    - a composition emits its phases in order, [iterations] times; the
      occurrences of a phase are interleaved by slicing each occurrence's
      reference stream into [max times] chunks emitted round-robin — a
      dense matrix–vector product becomes matrix row, vector traverse,
      matrix row, ... exactly as the kernel it models.

    The replay realizes the model's own assumptions, so simulating it is
    a consistency check of model vs simulator (the spirit of Fig. 4), not
    an independent measurement of a real implementation. *)

val check : Access_patterns.App_spec.t -> unit
(** Raises [Invalid_argument "<structure>: ..."] unless every structure,
    laid out as {!trace} lays it out in a fresh registry, fits a
    {!Cachesim.Cache.pack}ed event: element size, every byte's address
    and owner id in range.  Captures nothing. *)

val trace :
  ?telemetry:Dvf_util.Telemetry.t ->
  Access_patterns.App_spec.t ->
  Memtrace.Region.t ->
  Memtrace.Tape.t ->
  unit
(** Registers one region per spec structure, then appends the patterns'
    references to the tape.  Raises [Invalid_argument], before appending
    anything, when a region does not fit a packed event (as {!check}).
    Deterministic: equal specs yield equal traces.  [telemetry] (default {!Dvf_util.Telemetry.null}) gets a
    ["replay"] span (nested under any open span) and a ["replay/events"]
    counter of references appended. *)
