(** Content-addressed on-disk tape cache.

    The paper captures one trace per application and reuses it for every
    cache configuration; the store extends that across processes.  An
    entry is keyed by (workload, size label, seed, tape format version):
    the key hashes deterministically ({!Tape_io.hash_string}) into the
    entry's file name, so lookup is a single path probe and a format
    version bump retires every old entry by construction.

    Trust policy: entries that exist but cannot be loaded cleanly —
    corrupt payload, stale format version, or provenance that does not
    match the key — are {e evicted, never trusted}; the caller
    recaptures and the fresh capture overwrites the bad file.

    Telemetry (when the store carries a live collector): counters
    [store/hits], [store/misses], [store/load_bytes],
    [store/save_bytes], [store/evictions], and the [store/load_ns]
    duration accumulating wall-clock {!Tape_io.load} time. *)

type t

type key = {
  workload : string;  (** registry name, e.g. ["vm"] *)
  size : string;  (** instance size label *)
  seed : int;  (** capture seed (0 when unseeded) *)
}

val create : ?telemetry:Dvf_util.Telemetry.t -> dir:string -> unit -> t
(** Open (creating directories as needed, like [mkdir -p]) a store
    rooted at [dir].  Raises [Invalid_argument] if [dir] exists and is
    not a directory. *)

val dir : t -> string

val path : t -> key -> string
(** The deterministic on-disk path for [key] (whether or not an entry
    exists yet). *)

val find : t -> key -> (Region.t * Tape.t) option
(** Probe the store.  [None] on a missing entry; a present entry is
    fully loaded and checksummed, and evicted (returning [None]) if
    anything about it is untrustworthy. *)

val save : t -> key -> registry:Region.t -> tape:Tape.t -> unit
(** Persist a capture under [key] (atomic via {!Tape_io.save}). *)

val find_or_capture :
  t ->
  key ->
  capture:(unit -> Region.t * Tape.t) ->
  Region.t * Tape.t * bool
(** The store's main operation: return the cached capture for [key], or
    run [capture], persist its result, and return it.  The [bool] is
    [true] on a store hit (capture skipped entirely). *)

(** {2 Maintenance} *)

type entry = {
  file : string;  (** file name within the store directory *)
  status : [ `Ok of Tape_io.meta | `Stale of int | `Corrupt of string ];
}

val list : t -> entry list
(** All [.dvftape] entries (sorted by file name) with their header
    status.  Any format version other than {!Tape_io.format_version} is
    [`Stale] — even ones {!Tape_io.load} could still read — because the
    store keys entries on the current version, so no lookup will ever
    hit them again.  Cheap: reads headers only, does not checksum
    payloads. *)

val gc : ?max_bytes:int -> t -> string list
(** Remove every [`Stale] and [`Corrupt] entry, plus any orphaned
    [.dvftape.<pid>-<n>.tmp] (or older [.dvftape.tmp]) temporary left
    behind by an interrupted atomic save.  With
    [max_bytes], additionally evict healthy entries least-recently-used
    first ({!find} bumps an entry's mtime on every hit; ties break by
    file name) until the store's total size is within the budget.
    Returns the removed file names.  Raises [Invalid_argument] on a
    negative [max_bytes]. *)
