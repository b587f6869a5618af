(** The query engine behind [dvf serve] / [dvf query].

    The paper's methodology captures one trace per application and
    reuses it for every experiment; a {!t} takes that to serving scale:
    it warms every workload's capture once (optionally through a
    persistent {!Memtrace.Tape_store}, so even the first warm-up of a
    process can skip kernel execution) and then answers any number of
    verify / levels / dvf / sweep queries from memory.

    This module is protocol and computation only.  The transport —
    stdin/stdout or a Unix socket — lives in the CLI, which reads raw
    request lines and writes back exactly the response lines
    {!handle_line}/{!handle_batch} return.

    {2 Protocol}

    One JSON document per line ({!Dvf_util.Json.parse_line}).  Request:
    [{"id": <any>, "op": "<name>", ...params}].  Response (compact, one
    line): [{"schema": "dvf-query", "schema_version": 1, "id": <echoed>,
    "ok": true, "result": {...}}], or [{..., "ok": false, "error":
    "<message>"}].  Ops:

    - [ping] — liveness; result [{"pong": true}].
    - [workloads] — names being served.
    - [verify] — Fig. 4 rows over the verification cache set; optional
      ["workload"] restricts to one workload (default: all).  Rows are
      bit-identical to [dvf verify].
    - [levels] — per-level hierarchy traffic rows; optional ["workload"],
      optional ["levels"] (default 2).
    - [timed] — time-weighted residency rows over the verification cache
      set; optional ["workload"], optional ["levels"] (default 1) and
      ["bins"] (default {!Cachesim.Residency.default_bins}).  Rows are
      bit-identical to [dvf verify --time-weighted].
    - [dvf] — DVF profile rows over the profiling cache set (analytic,
      like [dvf profile]); optional ["workload"].
    - [sweep] — capacity sweep for one required ["workload"]; optional
      ["capacities"] (byte sizes) and ["simulate"] (default [true],
      trace-driven totals from the warm capture).
    - [chaos] — component-kill chaos campaign over a service-graph
      workload: optional ["workload"] (default the built-in
      [service_graph]; a served workload, or a built-in service
      workload registered on demand), ["trials"], ["kill_fraction"] and
      ["seed"].  The result is one {!Chaos.report}: availability rows
      (with Wilson intervals and per-endpoint DVF), the mix-weighted
      loss rate and the availability-vs-DVF Spearman rho.  Decoded via
      {!chaos_report_of_result}, it renders byte-identically to
      [dvf chaos].
    - [stats] — request count, workload count, warm capture count, store
      directory.

    Malformed requests and handler failures produce [ok: false]
    responses, never a crash of the serving process.  Size parameters
    are allocated in full, so each is bounded at about 100x its default
    and rejected before any work is done: ["bins"] at most 2000,
    ["trials"] at most 100000, and ["capacities"] at most 1 GiB
    (2{^30} bytes, 64x the sweep's largest default geometry) per entry
    and summed over its entries, since a simulated sweep builds every
    cache at once.
    The CLI's own flags are not bounded. *)

type t

val schema : string
val schema_version : int

val create :
  ?telemetry:Dvf_util.Telemetry.t ->
  ?store:Memtrace.Tape_store.t ->
  ?jobs:int ->
  ?workloads:Workload.t list ->
  unit ->
  t
(** A serving context over [workloads] (default: all registered).  Owns
    a domain pool of [jobs] workers (default
    {!Dvf_util.Parallel.recommended_jobs}) used to warm captures, to
    run concurrent requests, and inside the [verify], [levels] and
    [timed] handlers, whose replay tasks fan out over the same pool;
    with [jobs = 1] every handler runs in the calling domain.  Also owns
    a {!Verify.replica_store} that keeps one flushed cache replica per
    geometry between requests (its worst-case size is documented
    there).  [store] routes capture through a persistent tape store. *)

val warm : t -> unit
(** Capture (or load from the store) every served workload's
    verification tape, in parallel over the pool.  Optional — a request
    for a workload not yet warm captures it on demand — but a warmed
    server answers its first real query at replay speed.  Telemetry:
    span ["serve/warm"]. *)

val shutdown : t -> unit
(** Shut the domain pool down.  The context must not be used after. *)

val workload_names : t -> string list
val warm_count : t -> int

val handle_line : t -> string -> string option
(** Process one raw request line; the result is the raw response line
    (no trailing newline), or [None] for a blank keep-alive line.
    Telemetry per request: ["serve/requests"] counter and a
    ["serve/op/<op>"] span. *)

val handle_batch : t -> string list -> string list
(** Process a batch of request lines concurrently on the pool,
    preserving order: response [i] answers the [i]-th non-blank line.
    Results are identical to mapping {!handle_line} serially. *)

(** {2 Row codecs}

    JSON encodings of the types served in results.  Each is declared
    once, as one {!Dvf_util.Json.Codec}, which gives both the encoder
    and the decoder: key names, key order and [null] for an absent
    option cannot differ between the two.  Floats are emitted as
    [%.17g] (exact round-trip), so decoding rows and rendering them
    through [Verify.to_table] / [Verify.to_level_table] /
    [Profile.to_table] / [Experiments.cache_sweep_table] reproduces the
    one-shot CLI tables byte for byte — [dvf query]'s default output
    mode, and what the end-to-end tests assert.  The decoders raise
    [Failure] on malformed input, naming the row type and the key
    (["verify row: missing field \"modeled\""]). *)

val verify_row_to_json : Verify.row -> Dvf_util.Json.t
val verify_row_of_json : Dvf_util.Json.t -> Verify.row
val level_row_to_json : Verify.level_row -> Dvf_util.Json.t
val time_row_to_json : Verify.time_row -> Dvf_util.Json.t
val profile_row_to_json : Profile.row -> Dvf_util.Json.t
val profile_row_of_json : Dvf_util.Json.t -> Profile.row
val sweep_row_to_json : Experiments.sweep_row -> Dvf_util.Json.t
val chaos_report_to_json : Chaos.report -> Dvf_util.Json.t

val verify_rows_of_result : Dvf_util.Json.t -> Verify.row list
(** Decode the ["rows"] of a [verify] response's [result]; the four
    below decode the other replay ops' results the same way. *)

val level_rows_of_result : Dvf_util.Json.t -> Verify.level_row list
val timed_rows_of_result : Dvf_util.Json.t -> Verify.time_row list
val profile_rows_of_result : Dvf_util.Json.t -> Profile.row list
val sweep_rows_of_result : Dvf_util.Json.t -> Experiments.sweep_row list

val chaos_report_of_result : Dvf_util.Json.t -> Chaos.report
(** Decode a [chaos] response's [result] back into the report. *)

(** {2 Tape file inspection}

    The payload behind [dvf tape info]: a .dvftape file's header,
    provenance and layout (events, chunks, regions).  Declared as a
    codec like the rows — the JSON line round-trips exactly and the
    rendered table is byte-stable, which CI uses to pin the
    subcommand's output. *)

type tape_info = {
  ti_version : int;  (** on-disk format version the file declares *)
  ti_workload : string;
  ti_size : string;
  ti_seed : int;
  ti_chunk_events : int;  (** per-chunk capacity in events *)
  ti_events : int;
  ti_chunks : int;
  ti_regions : int;
}

val tape_info_of_file : string -> (tape_info, Memtrace.Tape_io.error) result
(** Load (checksum verified) and summarize one tape file. *)

val tape_info_to_json : tape_info -> Dvf_util.Json.t
val tape_info_of_json : Dvf_util.Json.t -> tape_info
val tape_info_table : tape_info -> Dvf_util.Table.t
