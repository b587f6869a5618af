(** The open workload registry.

    A workload is everything the experiment drivers need to evaluate and
    verify an application: Table II metadata, input-size descriptions, and
    an instance builder producing the CGPMAC spec, flop count and tracer
    for either problem scale.  The six paper kernels are registered at
    startup by {!Workloads}; additional workloads — e.g. compiled from an
    Aspen model file — can be registered at runtime and then flow through
    {!Verify}, {!Profile}, {!Experiments} and the CLI exactly like the
    built-ins. *)

type mode = [ `Verification | `Profiling ]
(** The two problem scales of the paper (Tables V and VI). *)

type instance = {
  workload : string;                  (** registry name, e.g. "CG" *)
  label : string;                     (** e.g. "CG 500x500" *)
  spec : Access_patterns.App_spec.t;
  flops : int;
  trace : Memtrace.Region.t -> Memtrace.Tape.t -> unit;
}

type t = {
  name : string;                      (** unique, case-insensitive *)
  computational_class : string;       (** Table II "computational method class" *)
  major_structures : string list;     (** Table II "major data structures" *)
  pattern_classes : string;           (** Table II "memory access patterns" *)
  example_benchmark : string;         (** Table II "example benchmarks" *)
  input_size : mode -> string;        (** Table V / Table VI "input size" *)
  instance : mode -> instance;        (** may run the kernel untraced *)
  injector : (unit -> Kernels.Fault_injection.injector) option;
      (** fault injector at an injection-friendly scale, for {!Injection}
          campaigns; [None] for workloads with no executable kernel
          (e.g. ones compiled from Aspen models).  A thunk, so clean-run
          precomputation is deferred past registration time. *)
  aspen_source : string option;       (** path of an equivalent .aspen model *)
  topology : Service_graph.t option;
      (** the service dependency graph behind a service-graph workload;
          [None] for single-kernel workloads.  Drives {!Chaos}
          component-kill campaigns — analytics and tracing go through
          [instance] like every other workload. *)
}

val make :
  name:string -> computational_class:string -> major_structures:string list ->
  pattern_classes:string -> example_benchmark:string ->
  input_size:(mode -> string) -> instance:(mode -> instance) ->
  ?injector:(unit -> Kernels.Fault_injection.injector) ->
  ?aspen_source:string -> ?topology:Service_graph.t -> unit -> t
(** The smart constructor: registrants name the fields they have and the
    optional ones default to [None], so the record can gain fields
    without breaking every construction site. *)

val register : t -> unit
(** Raises [Invalid_argument] if a workload with the same name (ignoring
    case) is already registered. *)

val find : string -> t option
(** Case-insensitive lookup. *)

val of_name : string -> t
(** Like {!find} but raises [Invalid_argument] naming the registered
    candidates when the lookup fails. *)

val names : unit -> string list
(** Registered names, in registration order. *)

val all : unit -> t list
(** Registered workloads, in registration order. *)
