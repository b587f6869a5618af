(** Persistent on-disk tape files.

    A saved tape is the whole capture artifact: provenance (workload,
    size label, seed), the simulated address-space layout
    ({!Region.export}), the per-chunk partition index
    ({!Tape.chunk_infos}), and the raw 16 B/event columnar chunks,
    behind a magic/versioned header with payload and index checksums.
    {!save} then {!load} round-trips bit-identically — the loaded tape
    replays (fused and sharded, at any job count) to exactly the
    statistics of the in-memory original.

    {!save} writes format version 2: the chunk table up front carries
    each chunk's length and partition index, and the payload is a
    contiguous, 8-byte-aligned block of addr/meta words.  {!load} maps
    that block with [Unix.map_file] and adopts chunks zero-copy via
    {!Tape.append_deferred_chunk}: the payload checksum is verified over
    the mapping before any chunk is adopted, and a chunk's [int] arrays
    are only decoded when a replay first touches it — so sharded walks
    that skip a chunk never pay for decoding it.  On a big-endian host
    or an unmappable file the same layout is streamed eagerly instead.
    Version 1 files (no chunk table) are refused with
    {!Version_mismatch}.

    All multi-byte fields are little-endian and fixed-width; the format
    assumes a 64-bit platform (as does the in-memory layout).  The
    layout is documented at the top of [tape_io.ml] and in DESIGN.md.
    A layout change bumps {!format_version}; readers accept versions
    [oldest_readable_version ..  format_version] and reject anything
    else with {!Version_mismatch} rather than guessing ([Tape_store]
    keys entries on {!format_version}, so a bump retires stale entries
    by plain cache miss and {!Tape_store.gc} reaps the files). *)

val format_version : int
(** Version written by {!save}. *)

val oldest_readable_version : int
(** Oldest version {!load} still reads: {!format_version} itself. *)

type meta = {
  workload : string;  (** registry name of the traced workload *)
  size : string;  (** instance size label, e.g. ["n=64 (verification)"] *)
  seed : int;  (** capture seed (0 when the workload takes none) *)
}

type error =
  | Bad_magic  (** not a tape file at all *)
  | Version_mismatch of int  (** a tape, but written by another version *)
  | Corrupt of string  (** truncated, checksum mismatch, bad field... *)
  | Io_error of string  (** could not open/read the file *)

val error_to_string : error -> string

val save :
  path:string -> meta:meta -> registry:Region.t -> tape:Tape.t -> unit
(** Write [tape] (with its provenance, registry and partition index) to
    [path] atomically: the bytes go to [path ^ ".tmp"] which is renamed
    into place, so a crash mid-save never leaves a half-written tape at
    [path].  Materializes any deferred chunks.  Raises [Sys_error] on
    I/O failure. *)

val load :
  ?telemetry:Dvf_util.Telemetry.t ->
  ?eager:bool ->
  string ->
  (meta * Region.t * Tape.t, error) result
(** Read a tape file back.  Verifies magic, version, structural
    invariants (chunk table, region layout) and both checksums; any
    failure is a structured [Error], never a partial tape.  For a v2
    file the chunks arrive deferred over a shared mapping (the
    ["tape/mmap_bytes"] counter on [telemetry] records the mapped
    payload size); [~eager:true] forces every chunk immediately —
    the benchmark baseline, and the streamed-fallback behaviour. *)

val read_meta : string -> (meta, error) result
(** Provenance only — reads just the fixed header, not the region table
    or chunks, so it is cheap enough to call on every store entry. *)

val read_version : string -> (int, error) result
(** The format version a file declares, magic checked but {e without}
    the readable-range check — so {!Tape_store.list} can label entries
    from any other build as stale rather than corrupt. *)

val hash_string : string -> int
(** Deterministic FNV-1a-shaped 63-bit hash (native-int arithmetic,
    stable across runs and processes on 64-bit platforms).  Used by
    {!Tape_store} for content-addressed file names; exposed so tests
    and external tooling can predict store paths. *)
