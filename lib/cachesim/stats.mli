(** Per-data-structure cache statistics.

    Owners are small integer identifiers handed out by the trace layer's
    region registry; owner [0] is conventionally "anonymous".  Main-memory
    accesses for a structure are its LLC misses plus the writebacks of its
    dirty lines (the paper counts "last level cache misses and evictions"). *)

type t

type counters = {
  reads : int;       (** line-granular read lookups *)
  writes : int;      (** line-granular write lookups *)
  hits : int;
  misses : int;
  writebacks : int;  (** dirty evictions attributed to the line's owner *)
}

val create : unit -> t

val record_access : t -> owner:int -> write:bool -> hit:bool -> unit
val record_writeback : t -> owner:int -> unit

val add : t -> owner:int -> counters -> unit
(** Add a whole set of counters to the owner's at once — for walks that
    tally their own counts and hand them over at the end ({!Sweep}). *)

val owner_counters : t -> int -> counters
(** All-zero counters for owners never seen. *)

val totals : t -> counters

val main_memory_accesses : t -> int -> int
(** [misses + writebacks] for the owner. *)

val total_main_memory_accesses : t -> int

val owners : t -> int list
(** Owners with at least one recorded event, ascending. *)

type snapshot = {
  per_owner : (int * counters) array;  (** active owners, ascending *)
  totals : counters;
}
(** An immutable capture of a whole statistics record: per-owner counters
    and their totals in one coherent value.  This is the API consumers
    outside the simulation loop ({!Core.Verify}, {!Core.Experiments},
    telemetry) read; the mutable {!t} stays private to the cache being
    driven. *)

val snapshot : t -> snapshot
(** Capture the current state.  Later accesses to the underlying cache do
    not affect an already-taken snapshot. *)

module Snapshot : sig
  val totals : snapshot -> counters

  val owners : snapshot -> int list

  val owner : snapshot -> int -> counters
  (** All-zero counters for owners not in the snapshot. *)

  val accesses : counters -> int
  (** [reads + writes] — every line-granular lookup the cache served,
      i.e. lines touched.  The telemetry accesses/sec figures divide this
      by the simulation span. *)

  val main_memory : counters -> int
  (** [misses + writebacks]. *)

  val owner_main_memory : snapshot -> int -> int
  val total_main_memory : snapshot -> int
end

val merge : into:t -> t -> unit
(** [merge ~into src] adds every counter of [src] into [into].  Used to
    aggregate the per-domain caches of a parallel sweep after the worker
    domains join; addition commutes, so the result is schedule-independent. *)

val sum : t list -> t
(** Fresh statistics holding the element-wise sum of the inputs. *)

val reset : t -> unit

(** {2 The counter layout}

    Private to this module and {!Cache}: the packed walk bumps counters
    in place rather than calling {!record_access} per line.  Everything
    else reads through the functions above. *)

val stride : int
(** Words per owner in {!counts}: reads, writes, hits, misses and
    writebacks at offsets 0 to 4 of the slot [owner * stride]. *)

val counts : t -> int array
(** The current storage.  It is replaced, never shrunk, when an owner
    past its end is reserved, so a caller holding it re-reads it after
    {!reserve}. *)

val reserve : t -> owner:int -> int array
(** Grow the storage to hold [owner]'s slot (keeping every count) and
    return it.  Raises [Invalid_argument] on a negative owner. *)
