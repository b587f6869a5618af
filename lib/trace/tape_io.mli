(** Persistent on-disk tape files.

    A saved tape is the whole capture artifact: provenance (workload,
    size label, seed), the simulated address-space layout
    ({!Region.export}) and the raw 8 B/event chunks of packed event
    words, behind a magic/versioned header and one checksum over
    everything else.
    {!save} then {!load} round-trips bit-identically — the loaded tape
    replays (fused and sharded, at any job count) to exactly the
    statistics of the in-memory original.

    {!save} writes format version 4: the header, then the
    {!Cachesim.Cache.pack} words of each chunk in capture order, so the
    file is the header plus 8 bytes per event.  Chunk lengths follow
    from the event count and the chunk capacity.  {!load} streams the
    payload, decoding and hashing each chunk in one pass and adopting it
    (via {!Tape.append_chunk}, which checks every word) while it is
    still in cache; the tape is returned only once the checksum matches
    and every word is valid.
    Version 1 to 3 files are refused.

    All multi-byte fields are little-endian and fixed-width; the format
    assumes a 64-bit platform (as does the in-memory layout).  The
    layout is documented at the top of [tape_io.ml] and in DESIGN.md.
    A layout change bumps {!format_version}; readers accept that version
    only and reject any other with {!Version_mismatch} rather than
    guessing ([Tape_store] keys entries on {!format_version}, so a bump
    retires stale entries by plain cache miss and {!Tape_store.gc} reaps
    the files). *)

val format_version : int
(** The one version {!save} writes and {!load} reads. *)

type meta = {
  workload : string;  (** registry name of the traced workload *)
  size : string;  (** instance size label, e.g. ["n=64 (verification)"] *)
  seed : int;  (** capture seed (0 when the workload takes none) *)
}

type error =
  | Bad_magic  (** not a tape file at all *)
  | Version_mismatch of int  (** a tape, but written by another version *)
  | Corrupt of string
      (** truncated, checksum mismatch, bad field, invalid event word... *)
  | Io_error of string  (** could not open/read the file *)

val error_to_string : error -> string

val save :
  path:string -> meta:meta -> registry:Region.t -> tape:Tape.t -> unit
(** Write [tape] (with its provenance and registry) to [path]
    atomically: the bytes go to a temporary [path ^ ".<pid>-<n>.tmp"],
    unique to this save, which is renamed into place — so a crash
    mid-save never leaves a half-written tape at [path], and concurrent
    saves of one path each install a complete file.  Raises [Sys_error]
    on I/O failure. *)

val load : string -> (meta * Region.t * Tape.t, error) result
(** Read a tape file back.  Verifies magic, version, the header fields,
    the file size against the event count, the checksum, which covers
    every header field and every event, and every event word: a word no
    {!Cachesim.Cache.pack} call returns is [Corrupt] even under a
    matching checksum (the checksum is not a signature, and the tape
    invariant is that every word is valid).  A file failing both checks
    reports the checksum mismatch.  Any failure is a structured [Error],
    never a partial tape or an exception. *)

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
