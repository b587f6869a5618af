(** Pipeline telemetry: span timers, counters, gauges, JSON emission.

    Every long-running layer of the DVF pipeline — trace recording, cache
    simulation, verification sweeps, injection campaigns — accepts an
    optional telemetry collector and reports into it: hierarchical
    wall-clock {e spans} (monotonic clock), monotone integer {e counters}
    and point-in-time float {e gauges}.  A collector serializes to a
    versioned JSON document ({!to_json}) written by [--metrics].

    {2 Zero cost when disabled}

    The default collector everywhere is {!null}: every recording function
    starts with a single [enabled] check and returns without allocating,
    and {!span} tail-calls its thunk directly.  Instrumented code
    therefore behaves identically — in output {e and} in allocation
    profile — whether or not metrics are requested.

    {2 Domains}

    An enabled collector is safe to share across domains: counter, gauge
    and span-total updates take an internal mutex, and the span {e stack}
    (which turns nested {!span} calls into [parent/child] paths) lives in
    domain-local storage, so concurrently running workers cannot corrupt
    each other's nesting.

    Everything recorded is deterministic except the time fields: counters
    and span {e call counts} depend only on the work done, never on [-j]
    scheduling. *)

type t

val null : t
(** The disabled collector.  All recording functions are no-ops that
    allocate nothing; {!enabled} is [false].  Stateless, so one shared
    value serves every caller. *)

val create : ?clock:(unit -> int64) -> unit -> t
(** A fresh enabled collector.  [clock] returns nanoseconds and defaults
    to the process monotonic clock; tests substitute a fake clock to make
    durations deterministic. *)

val enabled : t -> bool

val now_ns : t -> int64
(** Current clock reading, [0L] when disabled.  For instrumentation that
    needs to time a region not expressible as a {!span} thunk. *)

val span : t -> string -> (unit -> 'a) -> 'a
(** [span t name f] times [f ()] and accumulates the duration (and a call
    count) under [name], nested beneath any span currently open {e in
    this domain}: [span t "a" (fun () -> span t "b" ...)] records paths
    ["a"] and ["a/b"].  Exceptions propagate; the duration up to the
    raise is still recorded.  When disabled, [f] is called directly. *)

val time_ns : t -> string -> int64 -> unit
(** [time_ns t path ns] accumulates an externally measured duration under
    the absolute [path] (no nesting).  Used where a span's start and end
    are observed in different places, e.g. queue-wait time in
    {!Parallel}. *)

val add : t -> ?n:int -> string -> unit
(** Increment counter [name] by [n] (default 1). *)

val set_gauge : t -> string -> float -> unit
(** Set gauge [name] (last write wins). *)

val counter_value : t -> string -> int
(** Current value, [0] for unknown counters (always [0] when disabled). *)

val span_ns : t -> string -> int64
(** Accumulated nanoseconds under a span path, [0L] when absent. *)

val span_calls : t -> string -> int

val gauge_rate : t -> name:string -> counter:string -> span:string -> unit
(** Derive a throughput gauge: [name] := counter value / span seconds.
    No-op when the span has accumulated no time (avoids infinities). *)

val schema_version : int
(** Version stamped into every emitted document (currently 1). *)

val to_json : t -> Json.t
(** The versioned metrics document:
    {v
    { "schema": "dvf-telemetry", "schema_version": 1,
      "spans":    { "<path>": { "calls": int, "seconds": float }, ... },
      "counters": { "<name>": int, ... },
      "gauges":   { "<name>": float, ... } }
    v}
    Member names are sorted, so two collectors that recorded the same
    events differ only in the time-derived fields. *)

val validate : Json.t -> (unit, string) result
(** Check that a document has the shape {!to_json} emits (schema name and
    version, correctly typed sections).  Used by tests and CI smoke
    runs. *)

val write_file : t -> string -> unit
(** Serialize {!to_json} to a file (pretty-printed, trailing newline). *)
