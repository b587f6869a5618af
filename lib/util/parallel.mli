(** Parallel execution of independent jobs on OCaml 5 domains.

    Stdlib-only (Domain + Mutex + Condition): a fixed-size pool of worker
    domains pulls closures from a shared work queue.  Designed for the
    embarrassingly parallel sweeps in this repository — every kernel x
    cache-configuration simulation owns its private [Region], [Tape] and
    [Cache], so jobs share nothing mutable and the parallel result is
    bit-identical to the serial one.

    A job may itself call {!Pool.map} on the pool that runs it (a nested
    map): the calling worker then runs the nested elements itself while
    the other workers help.  The mapped function must not rely on
    ambient mutable globals. *)

val recommended_jobs : unit -> int
(** [Domain.recommended_domain_count ()] — the default worker count. *)

module Pool : sig
  type t

  val create : ?telemetry:Telemetry.t -> ?jobs:int -> unit -> t
  (** [create ~jobs ()] spawns [jobs] worker domains (default
      {!recommended_jobs}).  [jobs = 1] spawns none: every [map] then runs
      serially in the calling domain, preserving the exact serial code
      path.  Raises [Invalid_argument] when [jobs <= 0].

      [telemetry] (default {!Telemetry.null}) receives, for every task run
      on a spawned worker, the queue-wait time ([map] call to pickup) and
      the compute time under span paths ["pool/queue_wait"] and
      ["pool/compute"], plus a ["pool/tasks"] counter.  The serial
      [jobs = 1] path records nothing, keeping it exactly the historical
      code. *)

  val size : t -> int
  (** The job count the pool was created with. *)

  val map : t -> ('a -> 'b) -> 'a array -> 'b array
  (** Order-preserving parallel map: [map t f xs] runs [f] on every
      element and places results at the input's index.  All jobs run to
      completion even if some raise; afterwards the first failure in
      input order is re-raised with its original backtrace.  Raises
      [Invalid_argument] if the pool has been shut down.

      A caller from outside the pool only enqueues and waits, so at most
      [size t] domains compute at once.  A worker of [t] that calls
      [map t] (from inside a job) runs the new elements itself, in input
      order, while idle workers help; it waits only for elements another
      worker has already started, and never takes an unrelated job
      while it waits, so nested maps cannot deadlock. *)

  val map_list : t -> ('a -> 'b) -> 'a list -> 'b list
  (** [map] over lists. *)

  val shutdown : t -> unit
  (** Drain the queue, stop the workers and join their domains.
      Idempotent-safe to call once; the pool is unusable afterwards. *)
end

val with_pool : ?telemetry:Telemetry.t -> ?jobs:int -> (Pool.t -> 'a) -> 'a
(** Create a pool, run the callback, always shut the pool down. *)

val map : ?telemetry:Telemetry.t -> ?jobs:int -> ('a -> 'b) -> 'a array -> 'b array
(** One-shot [Pool.map] on a transient pool.  [~jobs:1] bypasses pool
    machinery entirely ([Array.map]). *)

val map_list :
  ?telemetry:Telemetry.t -> ?jobs:int -> ('a -> 'b) -> 'a list -> 'b list
(** One-shot [Pool.map_list] on a transient pool.  [~jobs:1] bypasses
    pool machinery entirely ([List.map]). *)
